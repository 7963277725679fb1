"""Each command in a process of its own, as the command line runs it: the
readers load no stage module, and every command exits and prints as it
does in-process."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from notecards.cli import main

from conftest import FIXTURES

SRC = Path(__file__).resolve().parents[1] / "src"
STAGES = {
    f"notecards.{name}"
    for name in ("pipeline", "ontology", "refine", "notes", "annotate", "ingest", "organize")
}
# Runs ``notecards ARGS`` and writes the notecards modules it loaded to REPORT.
PROBE = """
import json, sys
from notecards.cli import main
status = main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump(sorted(m for m in sys.modules if m.startswith("notecards")), handle)
sys.exit(status)
"""


def fresh(tmp_path: Path, *argv) -> tuple[subprocess.CompletedProcess, set[str]]:
    report = tmp_path / "modules.json"
    report.unlink(missing_ok=True)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(report), *map(str, argv)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    return proc, set(json.loads(report.read_text(encoding="utf-8")))


def in_process(capsys, *argv) -> tuple[int, str, str]:
    capsys.readouterr()
    status = main([str(a) for a in argv])
    out = capsys.readouterr()
    return status, out.out, out.err


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> Path:
    store = tmp_path_factory.mktemp("fresh") / "store"
    assert main(["run", "--config", str(FIXTURES / "jobs_config.json"), "--store", str(store)]) == 0
    return store


@pytest.mark.parametrize(
    "argv",
    [
        ["cards", "list"],
        ["cards", "list", "--json"],
        ["export", "--format", "json"],
        ["export", "--format", "dot"],
        ["routes", "{card}", "subject:steve"],
        ["cards", "list", "--missing"],
    ],
    ids=["cards-list", "cards-list-json", "export-json", "export-dot", "routes", "missing-store"],
)
def test_a_reader_loads_no_stage_and_prints_as_in_process(store, tmp_path, capsys, argv):
    card = json.loads(in_process(capsys, "cards", "list", "--store", store, "--json")[1])[0]
    root = tmp_path / "missing" if "--missing" in argv else store
    argv = [a.format(card=card["card_id"]) for a in argv if a != "--missing"] + ["--store", root]
    proc, loaded = fresh(tmp_path, *argv)
    assert not loaded & STAGES
    assert "notecards.cards" in loaded
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(capsys, *argv)
    assert proc.returncode == (2 if root != store else 0)
    assert not (tmp_path / "missing").exists()


def test_notes_list_loads_the_note_module_and_no_other_stage(store, tmp_path, capsys):
    proc, loaded = fresh(tmp_path, "notes", "list", "--store", store)
    assert loaded & STAGES == {"notecards.notes"}
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(
        capsys, "notes", "list", "--store", store
    )


def test_a_reader_given_a_config_builds_it_with_the_pipeline(store, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"organize": ["7d"]}), encoding="utf-8")
    argv = ["cards", "list", "--config", config, "--store", store]
    proc, loaded = fresh(tmp_path, *argv)
    assert "notecards.pipeline" in loaded
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(capsys, *argv)
    assert proc.stderr == "error: config organize must be a JSON object\n"


def test_errors_of_the_lazily_loaded_modules_keep_their_exit_codes(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"organize": ["7d"]}), encoding="utf-8")
    # (exit status, stderr, a part of stdout, argv for a store name)
    cases = [
        (1, "", "load", lambda name: ["ontology", "validate", broken]),  # an OntologyError
        (2, "error: config organize must be a JSON object\n", "",
         lambda name: ["run", "--config", config, "--store", tmp_path / name]),
        (2, f"error: corpus not readable: {tmp_path / 'absent.jsonl'}\n", "",
         lambda name: ["ingest", "--corpus", tmp_path / "absent.jsonl", "--store", tmp_path / name]),
    ]
    for status, err, out, argv in cases:
        proc, _ = fresh(tmp_path, *argv("fresh"))
        assert (proc.returncode, proc.stderr) == (status, err)
        assert out in proc.stdout
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process(capsys, *argv("in-process"))
