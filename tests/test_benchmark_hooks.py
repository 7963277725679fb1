from __future__ import annotations

import builtins
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from notecards import cards, encoding, ingest, notes, organize, pipeline, refine
from notecards.pipeline import load_config, run_pipeline

from conftest import FIXTURES, store_bytes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    # The tracer looks each name up in its owner's own __dict__, so a method
    # moved into a helper or base class would break only a traced benchmark run.
    layers = load("layers")
    missing = [
        layers.target_name(owner, attribute)
        for owner, attribute, *_ in layers.RUN_TARGETS + layers.CLI_TARGETS
        if not callable(owner.__dict__.get(attribute))
    ]
    assert missing == []


def test_every_run_wrapper_fires_on_a_cold_run_and_a_rerun_with_new_input(tmp_path, monkeypatch):
    # The benchmark's traced workloads fail when a wrapper stays silent; a run
    # that stops calling a traced name fails here first. A store write outside
    # every span is time and bytes no layer accounts for.
    layers = load("layers")
    inputs = load("gen").generate(tmp_path / "inputs", FIXTURES, 7, 3, 2, 1)

    def run(store: Path, config_file: Path) -> None:
        config = load_config(config_file)
        config.store_root = store
        run_pipeline(config)

    for config_file in (inputs.config, inputs.config_plus):
        run(tmp_path / "untraced", config_file)
    for owner, attribute, *_ in layers.RUN_TARGETS:
        monkeypatch.setattr(owner, attribute, owner.__dict__[attribute])  # restored after the test
    tracer = layers.install(layers.RUN_TARGETS, lambda: 0)
    unspanned = []

    def spanned(write):
        def store_write(path, *args):
            if not tracer.stack:
                unspanned.append(Path(path).relative_to(tmp_path / "traced"))
            return write(path, *args)

        return store_write

    for module in (ingest, organize, notes, refine, cards, pipeline):
        for name in ("append_jsonl", "write_json"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spanned(getattr(encoding, name)))
    for config_file in (inputs.config, inputs.config_plus):
        tracer.fired.clear()
        run(tmp_path / "traced", config_file)
        assert layers.unfired(layers.RUN_TARGETS, tracer.fired) == [], config_file.name
        assert unspanned == [], config_file.name
    assert tracer.counts["ingest.docs_new"] == inputs.docs + inputs.new_docs
    # One wrapped annotate_with_matcher call per document annotated: a run that
    # batches documents past it leaves the annotate span short of its work.
    assert tracer.counts["annotate.docs"] == inputs.docs + inputs.new_docs
    assert store_bytes(tmp_path / "traced") == store_bytes(tmp_path / "untraced")


def test_counting_what_an_open_holds_reads_no_file_and_decodes_no_line(tmp_path, monkeypatch):
    # The traced workloads count pipeline.open_records after the open returns,
    # outside every span, and fail when top-level spans cover under 90% of
    # run_s; a count that reads the store back is time no layer accounts for.
    layers = load("layers")
    inputs = load("gen").generate(tmp_path / "inputs", FIXTURES, 7, 3, 2, 1)
    opened = []
    open_stores = pipeline.Stores.__init__

    def keeping(self, *args, **kwargs):
        open_stores(self, *args, **kwargs)
        opened.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline.Stores, "__init__", keeping)
        for config_file in (inputs.config, inputs.config_plus):
            config = load_config(config_file)
            config.store_root = tmp_path / "store"
            run_pipeline(config)
    writer, reader = opened[-1], pipeline.Stores(config)  # the rerun's, and one after it
    touched = []

    def recording(function):
        def call(*args, **kwargs):
            touched.append((function.__name__, args[0]))
            return function(*args, **kwargs)

        return call

    with monkeypatch.context() as patch:
        for owner, name in ((builtins, "open"), (io, "open"), (os, "open"), (json, "loads"),
                            (encoding, "_decode")):
            patch.setattr(owner, name, recording(getattr(owner, name)))
        counts = [layers._open_records(None, (stores,)) for stores in (writer, reader)]
    assert touched == []
    assert counts[0] == counts[1] and counts[0]["pipeline.open_records"] > 0


def test_every_cli_wrapper_fires_on_one_pass_of_the_query_mix(tmp_path, monkeypatch, capsys):
    # The traced query workload fails when a wrapper stays silent; a command
    # that stops calling a traced name fails here first. The commands are
    # those of the benchmark's query mix, run in this process.
    layers = load("layers")
    inputs = load("gen").generate(tmp_path / "inputs", FIXTURES, 7, 3, 2)
    run_pipeline(load_config(inputs.config))
    subject = inputs.subjects[0]
    card = inputs.card_id(subject)
    store = ["--store", str(inputs.store)]
    mix = [
        ["cards", "list", *store],
        ["card", "show", card, "--json", *store],
        ["card", "show", card, "--audit", "--json", *store],
        ["export", "--format", "dot", *store],
        ["export", "--format", "json", *store],
        ["routes", card, f"subject:{subject}", *store],
        ["notes", "list", *store],
    ]
    for owner, attribute, *_ in layers.CLI_TARGETS:
        monkeypatch.setattr(owner, attribute, owner.__dict__[attribute])  # restored after the test
    tracer = layers.install(layers.CLI_TARGETS, lambda: 0)
    assert [layers.cli.main(argv) for argv in mix] == [0] * len(mix)
    missing = tmp_path / "missing-store"
    assert layers.cli.main(["cards", "list", "--store", str(missing)]) == 2
    assert not missing.exists()
    capsys.readouterr()
    assert layers.unfired(layers.CLI_TARGETS, tracer.fired) == []
    assert tracer.fired[layers.target_name(layers.cli, "main")] == len(mix) + 1


REPO = PERFBENCH.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_passes_its_own_output_checks_at_the_tiny_size(workload):
    # The untraced half of perfbench/selftest.py: a store format change that
    # breaks the benchmark's output checks fails here, not only in the selftest.
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", "0", "--size", "tiny"]
    run = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=170)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"], run.stderr
    # The query mix counts one missing-store command per round as failed.
    allowed = result["attempted"] // load("selftest").QUERY_MIX if workload == "query" else 0
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= allowed
