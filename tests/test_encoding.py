from __future__ import annotations

import pytest

from notecards.encoding import StoreFormatError, append_jsonl, cut_torn_tail, read_jsonl


def test_whole_log_is_left_alone(tmp_path):
    log = tmp_path / "log.jsonl"
    append_jsonl(log, [{"a": 1}, {"b": 2}])
    before = log.read_bytes()
    assert cut_torn_tail(log) is False
    assert log.read_bytes() == before


def test_missing_and_empty_logs_are_not_torn(tmp_path):
    assert cut_torn_tail(tmp_path / "missing.jsonl") is False
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert cut_torn_tail(empty) is False
    assert not (tmp_path / "missing.jsonl").exists()


@pytest.mark.parametrize("tail", [b"{", b'{"c":' + b"x" * 50])
def test_torn_tail_is_cut_back_to_the_last_whole_line(tmp_path, tail):
    log = tmp_path / "log.jsonl"
    append_jsonl(log, [{"a": 1}, {"b": 2}])
    intact = log.read_bytes()
    log.write_bytes(intact + tail)
    with pytest.raises(StoreFormatError, match="line 3 is the torn end"):
        list(read_jsonl(log))
    assert cut_torn_tail(log) is True
    assert log.read_bytes() == intact
    assert list(read_jsonl(log)) == [{"a": 1}, {"b": 2}]


def test_log_without_any_whole_line_is_cut_to_nothing(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_bytes(b'{"a":')
    assert cut_torn_tail(log) is True
    assert log.read_bytes() == b""
