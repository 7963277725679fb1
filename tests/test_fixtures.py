from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import FIXTURES

BUILDER = Path(__file__).resolve().parents[1] / "tools" / "build_fixtures.py"


def test_shipped_fixtures_match_what_the_builder_writes():
    spec = importlib.util.spec_from_file_location("build_fixtures", BUILDER)
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    built = {name: text.encode("utf-8") for name, text in builder.fixture_texts().items()}
    shipped = {path.name: path.read_bytes() for path in FIXTURES.iterdir() if path.is_file()}
    assert sorted(shipped) == sorted(built)
    for name, data in built.items():
        assert shipped[name] == data, f"{name} differs from tools/build_fixtures.py; rerun it"
