#!/usr/bin/env python3
"""notecards benchmark: cold run, incremental rerun and a read-only query mix.

    python3 perfbench/run.py --workload {cold,incremental,query} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the program from
``src/`` and builds nothing. Inputs come from ``gen.py`` and the seed.
One client drives a closed loop from this process, without threads: it
repeats whole rounds (set-up, measured phases, output checks) until the
next round would end past ``--seconds``, and reports medians over all
measured phases of the run. Every measured phase runs in a child process
that does nothing else.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``layers.py`` with ``--trace 1``.
Scratch files go to ``.perfbench_work/`` and are removed at exit; span
files of traced runs stay in ``.perfbench_traces/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
FIXTURES = SRC / "notecards" / "fixtures"
PHASE = HERE / "phase.py"
CHILD_TIMEOUT_S = 120
# Children write their stdout to files; block buffering there is what any
# redirected command gets, whatever the calling shell exported.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

# (subjects, repetitions, new subjects) per workload; "tiny" is for selftest.py.
SIZES = {
    "full": {"cold": (200, 1, 0), "incremental": (100, 2, 1), "query": (100, 2, 0)},
    "tiny": {"cold": (3, 1, 0), "incremental": (3, 2, 1), "query": (3, 2, 0)},
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "docs_per_s": "docs/s",
    "peak_rss_mb": "MB",
    "write_bytes": "bytes",
    "store_bytes": "bytes",
    "query_p50_ms": "ms",
}

# A name ending in _s is the self time of the span of the same stem.
PER_LAYER = {
    "ontology.load_s": "s",
    "pipeline.open_s": "s",
    "pipeline.open_records": "count",
    "pipeline.drill_s": "s",
    "ingest.corpus_s": "s",
    "ingest.list_s": "s",
    "ingest.docs_new": "count",
    "ingest.docs_listed": "count",
    "annotate.busy_s": "s",
    "annotate.docs": "count",
    "annotate.new_ratio": "ratio",
    "organize.add_s": "s",
    "organize.close_s": "s",
    "organize.groups_formed": "count",
    "organize.release_ratio": "ratio",
    "notes.synth_s": "s",
    "notes.store_s": "s",
    "notes.list_s": "s",
    "notes.synthesized": "count",
    "refine.validate_s": "s",
    "refine.rules_s": "s",
    "refine.store_s": "s",
    "refine.refined": "count",
    "cards.accumulate_s": "s",
    "cards.admit_s": "s",
    "cards.index_write_s": "s",
    "cards.index_writes": "count",
    "cards.maker_save_s": "s",
    "cards.maker_saves": "count",
    "cards.committed": "count",
    "cards.write_bytes": "bytes",
    "graph.query_s": "s",
    "graph.build_s": "s",
    "graph.export_s": "s",
    "graph.routes_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.coverage": "ratio",
}
MIN_COVERAGE = 0.9
# Incremental reruns per base store. One rerun lasts about 2 s, short enough
# for the shared host to move it by 20%; the median of several is steady,
# and sharing one base build keeps the set-up from crowding them out.
RERUNS = 4


class BenchError(Exception):
    """The benchmark itself cannot go on: no program, a crashed phase, a broken trace."""


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


@dataclass
class Proc:
    status: int
    wall_s: float  # spawn to exit
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Sample:
    """One measured phase: a pipeline run, or one pass of the query mix."""

    run_s: float
    docs: int  # documents newly stored, or opened by the query mix
    peak_rss_mb: float
    write_bytes: int
    store_bytes: int
    command_s: list[float]  # spawn to exit of each process that succeeded
    layers: dict = field(default_factory=dict)


@dataclass
class Round:
    setup_s: float
    samples: list[Sample]
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def tree(path: Path) -> tuple[int, str]:
    """Total bytes and a digest of every file's path and contents."""
    size, digest = 0, hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        data = file.read_bytes()
        size += len(data)
        digest.update(file.relative_to(path).as_posix().encode() + b"\0" + data)
    return size, digest.hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, size: str):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.size = SIZES[size][workload]
        self.work = REPO / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.traces = REPO / ".perfbench_traces" / f"{workload}-seed{seed}"
        self.spawned = 0

    # -- processes -----------------------------------------------------------

    def spawn(self, argv: list[str]) -> Proc:
        """Run one child to completion; its time is taken from spawn to exit."""
        self.spawned += 1
        out_path = self.work / f"child-{self.spawned}.out"
        err_path = self.work / f"child-{self.spawned}.err"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, cwd=REPO,
                                    env=CHILD_ENV)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException as exc:
                proc.kill()
                proc.wait()
                if isinstance(exc, _Timeout):
                    raise BenchError(f"child ran over {CHILD_TIMEOUT_S}s: {argv}") from None
                raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024,
                    out_path.read_text("utf-8"), err_path.read_text("utf-8"))

    def pipeline_phase(self, config: Path, store: Path | None = None, trace: Path | None = None):
        argv = [str(PHASE), "run", str(config)]
        if store is not None:
            argv += ["--store", str(store)]
        if trace is not None:
            argv += ["--trace", str(trace)]
        proc = self.spawn(argv)
        if proc.status != 0:
            raise BenchError(f"pipeline phase exited {proc.status}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1]), proc

    def round_dir(self, k: int) -> Path:
        path = self.work / f"round-{k}"
        path.mkdir(parents=True)
        return path

    # -- workloads -------------------------------------------------------------

    def generate(self, k: int):
        subjects, repetitions, new = self.size
        return gen.generate(self.round_dir(k), FIXTURES, self.seed, subjects, repetitions, new)

    def cold(self, k: int) -> Round:
        t0 = time.monotonic()
        inputs = self.generate(k)
        trace = self.traces / f"round-{k}.jsonl" if self.trace else None
        result, proc = self.pipeline_phase(inputs.config, trace=trace)
        problems = check_summary(result["summary"], inputs, inputs.docs, inputs.docs, len(inputs.subjects))
        stores = Stores(load_config(inputs.config))
        problems += check_cards(stores, inputs, inputs.subjects, inputs.subjects)
        if trace is not None and k == 0:
            problems += self.same_as_untraced(inputs.store, inputs.config, inputs.root / "twin")
        sample = self.pipeline_sample(result, proc, inputs.docs, inputs.store)
        return Round(result["t_ready"] - t0, [sample], attempted=1, problems=problems)

    def incremental(self, k: int) -> Round:
        """Build the base store, then rerun it with the new corpus on RERUNS copies."""
        t0 = time.monotonic()
        inputs = self.generate(k)
        self.pipeline_phase(inputs.config)
        before = inputs.root / "log-before.jsonl"
        shutil.copyfile(inputs.store / "cards" / "log.jsonl", before)
        copies = [inputs.store]
        for j in range(1, RERUNS):
            copies.append(inputs.root / f"store-{j}")
            shutil.copytree(inputs.store, copies[-1])
        twin = None
        if self.trace and k == 0:
            twin = inputs.root / "twin"
            shutil.copytree(inputs.store, twin)
        runs = []
        for j, store in enumerate(copies):
            trace = self.traces / f"round-{k}-{j}.jsonl" if self.trace else None
            runs.append(self.pipeline_phase(inputs.config_plus, store=store, trace=trace))
        problems = []
        for result, _ in runs:
            problems += check_summary(result["summary"], inputs, inputs.docs + inputs.new_docs,
                                      inputs.new_docs, len(inputs.new_subjects))
        stores = Stores(load_config(inputs.config_plus))
        problems += check_cards(stores, inputs, inputs.new_subjects,
                                inputs.subjects + inputs.new_subjects)
        old = CardLedger.replay(before)
        for subject in inputs.subjects:
            card_id = inputs.card_id(subject)
            after = stores.ledger.get(card_id)
            if card_id not in old or after is None or card_to_dict(old[card_id]) != card_to_dict(after):
                problems.append(f"card {card_id} of an unchanged subject changed")
        digest = tree(inputs.store)
        if any(tree(store) != digest for store in copies[1:]):
            problems.append("reruns of the same inputs left different stores")
        if twin is not None:
            problems += self.same_as_untraced(inputs.store, inputs.config_plus, twin)
        samples = [self.pipeline_sample(result, proc, inputs.new_docs, store)
                   for (result, proc), store in zip(runs, copies)]
        return Round(runs[0][0]["t_ready"] - t0, samples, attempted=len(runs), problems=problems)

    def same_as_untraced(self, store: Path, config: Path, twin: Path) -> list[str]:
        """Run the phase untraced on the same inputs; the stores must be byte-identical."""
        self.pipeline_phase(config, store=twin)
        if tree(store) != tree(twin):
            return ["traced store differs from the untraced store of the same inputs"]
        return []

    def pipeline_sample(self, result: dict, proc: Proc, docs: int, store: Path) -> Sample:
        sample = Sample(
            run_s=result["run_s"],
            docs=docs,
            peak_rss_mb=proc.peak_rss_mb,
            write_bytes=result["write_bytes"],
            store_bytes=tree(store)[0],
            command_s=[proc.wall_s],
        )
        if self.trace:
            aggregate = result["trace"]
            self.require_fired(layers.RUN_TARGETS, aggregate["fired"])
            coverage = aggregate["top_s"] / result["run_s"]
            if coverage < MIN_COVERAGE:
                raise BenchError(f"top-level spans cover {coverage:.1%} of run_s, under {MIN_COVERAGE:.0%}")
            sample.layers = layer_metrics([aggregate], result["run_s"], coverage, 0.0)
        return sample

    def query(self, k: int) -> Round:
        t0 = time.monotonic()
        inputs = self.generate(k)
        self.pipeline_phase(inputs.config)
        setup_s = time.monotonic() - t0
        before = tree(inputs.store)
        subject = random.Random(f"{self.seed}:{k}").choice(inputs.subjects)
        card = inputs.card_id(subject)
        missing = inputs.root / "missing-store"
        mix = [
            ("cards", ["cards", "list"]),
            ("show", ["card", "show", card, "--json"]),
            ("audit", ["card", "show", card, "--audit", "--json"]),
            ("dot", ["export", "--format", "dot"]),
            ("json", ["export", "--format", "json"]),
            ("routes", ["routes", card, f"subject:{subject}"]),
            ("notes", ["notes", "list"]),
        ]
        commands = [(name, argv + ["--store", str(inputs.store)]) for name, argv in mix]
        commands.append(("missing", ["cards", "list", "--store", str(missing)]))
        outputs: dict[str, tuple[Proc, dict]] = {}
        start = time.perf_counter()
        for name, argv in commands:
            report = inputs.root / f"{name}.report.json"
            trace = ["--trace", str(self.traces / f"round-{k}-{name}.jsonl")] if self.trace else []
            proc = self.spawn([str(PHASE), "cli", str(report), *trace, "--", *argv])
            if not report.exists():
                raise BenchError(f"notecards {' '.join(argv)} crashed:\n{proc.stderr[-2000:]}")
            outputs[name] = (proc, json.loads(report.read_text("utf-8")))
        run_s = time.perf_counter() - start

        problems = check_query(outputs, inputs, subject, card)
        if tree(inputs.store) != before:
            problems.append("the read-only mix changed the store's bytes")
        # Read-only commands must not create a missing store (exit 2, no directory).
        failed = int(outputs["missing"][0].status != 2 or missing.exists())
        shutil.rmtree(missing, ignore_errors=True)
        ok = [proc for name, (proc, _) in outputs.items() if name != "missing"]
        sample = Sample(
            run_s=run_s,
            docs=inputs.docs * len(ok),
            peak_rss_mb=max(proc.peak_rss_mb for proc, _ in outputs.values()),
            write_bytes=sum(report["write_bytes"] for _, report in outputs.values()),
            store_bytes=before[0],
            command_s=[proc.wall_s for proc in ok],
        )
        if self.trace:
            aggregates = [report["trace"] for _, report in outputs.values()]
            self.require_fired(layers.CLI_TARGETS, sum((Counter(a["fired"]) for a in aggregates), Counter()))
            walls = sum(proc.wall_s for proc, _ in outputs.values())
            coverage = sum(a["top_s"] for a in aggregates) / walls
            imported = self.spawn(["-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import notecards.cli"])
            sample.layers = layer_metrics(aggregates, run_s, coverage, imported.wall_s)
        return Round(setup_s, [sample], attempted=len(commands), failed=failed, problems=problems)

    def require_fired(self, targets, fired) -> None:
        silent = layers.unfired(targets, fired)
        if silent:
            raise BenchError(f"wrappers never fired on {self.workload}: {', '.join(silent)}")

    # -- the run ------------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if self.trace:
            shutil.rmtree(self.traces, ignore_errors=True)
            self.traces.mkdir(parents=True)
        workload = getattr(self, self.workload)
        rounds: list[Round] = []
        start = time.monotonic()
        try:
            while True:
                if rounds:
                    shutil.rmtree(self.work / f"round-{len(rounds) - 1}")
                rounds.append(workload(len(rounds)))
                r = rounds[-1]
                runs = " ".join(f"{sample.run_s:.3f}" for sample in r.samples)
                print(f"round {len(rounds)}: setup {r.setup_s:.3f}s run {runs}s "
                      f"failed {r.failed}/{r.attempted}", file=sys.stderr)
                for problem in r.problems:
                    print(f"check failed: {problem}", file=sys.stderr)
                elapsed = time.monotonic() - start
                if elapsed + elapsed / len(rounds) > seconds:
                    break
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):  # left when another run still works there
                self.work.parent.rmdir()
        return summarize(rounds, self.trace)


def summarize(rounds: list[Round], trace: bool) -> dict:
    median = statistics.median
    samples = [sample for r in rounds for sample in r.samples]
    if trace:
        # Counts repeat exactly from run to run; median_low keeps them whole.
        values = {
            name: (median if unit == "s" else statistics.median_low)(s.layers[name] for s in samples)
            for name, unit in PER_LAYER.items()
        }
        units = PER_LAYER
    else:
        values = {
            "setup_s": median(r.setup_s for r in rounds),
            "run_s": median(s.run_s for s in samples),
            "docs_per_s": median(s.docs / s.run_s for s in samples),
            "peak_rss_mb": median(s.peak_rss_mb for s in samples),
            "write_bytes": statistics.median_low(s.write_bytes for s in samples),
            "store_bytes": statistics.median_low(s.store_bytes for s in samples),
            "query_p50_ms": 1000 * median(t for s in samples for t in s.command_s),
        }
        units = END_TO_END
    return {
        "correct": not any(r.problems for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def layer_metrics(aggregates: list[dict], run_s: float, coverage: float, import_s: float) -> dict:
    self_s = sum((Counter(a["self_s"]) for a in aggregates), Counter())
    counts = sum((Counter(a["counts"]) for a in aggregates), Counter())
    out = {}
    for name, unit in PER_LAYER.items():
        out[name] = self_s.get(name[:-2], 0.0) if unit == "s" else counts.get(name, 0)
    annotated = counts.get("annotate.chunks", 0)
    formed = counts.get("organize.groups_formed", 0)
    out["annotate.new_ratio"] = counts.get("organize.chunks_new", 0) / annotated if annotated else 0.0
    out["organize.release_ratio"] = counts.get("organize.groups_released", 0) / formed if formed else 0.0
    out["cli.import_s"] = import_s
    out["trace.run_s"] = run_s
    out["trace.coverage"] = coverage
    return out


# -- output checks: expectations come from gen.py, never from saved outputs ----


def check_summary(summary: dict, inputs, ingested: int, docs: int, subjects: int) -> list[str]:
    """Counts of one run that added ``docs`` documents of ``subjects`` new subjects."""
    notes = subjects * inputs.notes_per_subject
    expected = {
        ("documents", "ingested"): ingested,
        ("documents", "rejected"): 0,
        ("chunks", "emitted"): docs,  # one chunk per generated sentence
        ("chunks", "skipped"): 0,
        ("notes", "synthesized"): notes,
        ("notes", "refined"): notes,
        ("notes", "rejected"): 0,
        ("cards", "committed"): len(inputs.subjects) + len(inputs.new_subjects),
        ("cards", "expired"): 0,
    }
    return [
        f"summary {a}.{b} = {summary[a][b]}, expected {want}"
        for (a, b), want in expected.items()
        if summary[a][b] != want
    ]


def check_cards(stores, inputs, subjects: list[str], everyone: list[str]) -> list[str]:
    """One committed card per subject, expected scores, nothing dangling."""
    problems = []
    by_subject: dict[str, list] = {}
    for card in stores.ledger.cards():
        by_subject.setdefault(card.subject, []).append(card)
    if set(by_subject) != set(everyone):
        problems.append(f"cards cover {len(by_subject)} subjects, expected {len(everyone)}")
    for subject in subjects:
        found = by_subject.get(subject, [])
        if len(found) != 1:
            problems.append(f"subject {subject} has {len(found)} cards")
            continue
        card = found[0]
        if (card.card_id, card.status, card.score_vector(), card.criteria_met, card.threshold) != (
            inputs.card_id(subject), "committed", inputs.scores, inputs.criteria_met, inputs.threshold
        ):
            problems.append(f"card {card.card_id}: {card.status} scores={card.score_vector()} "
                            f"met={card.criteria_met}/{card.threshold}")
        dangling = audit_card(card.card_id, stores)
        if dangling:
            problems.append(f"card {card.card_id} audit: {dangling[0]}")
    if len(stores.notes) != len(everyone) * inputs.notes_per_subject:
        problems.append(f"store holds {len(stores.notes)} notes")
    if len(stores.refined) != len(everyone) * inputs.notes_per_subject:
        problems.append(f"store holds {len(stores.refined)} refined notes")
    return problems


def check_query(outputs: dict, inputs, subject: str, card: str) -> list[str]:
    problems = [
        f"{name} exited {proc.status}"
        for name, (proc, _) in outputs.items()
        if name != "missing" and proc.status != 0
    ]
    if problems:
        return problems
    text = {name: proc.stdout for name, (proc, _) in outputs.items()}
    n = len(inputs.subjects)

    lines = text["cards"].splitlines()
    if sorted(line.split()[0] for line in lines[:-1]) != sorted(map(inputs.card_id, inputs.subjects)) \
            or lines[-1] != f"({n} cards)":
        problems.append("cards list does not name exactly one card per subject")

    shown = json.loads(text["show"])["card"]
    scores = tuple(len(set(shown["dimensions"].get(str(i + 1), []))) for i in range(len(inputs.scores)))
    if shown["card_id"] != card or scores != inputs.scores:
        problems.append(f"card show {card}: {shown['card_id']} scores={scores}")

    audited = json.loads(text["audit"])
    uris = {
        chunk["document"]["source_uri"]
        for evidence in audited["evidence"]
        for note in evidence["notes"]
        for chunk in note["chunks"]
    }
    if audited["audit"]["dangling"] or uris != inputs.uris[subject]:
        problems.append(f"card show --audit {card}: dangling or wrong source documents")

    dot = text["dot"].splitlines()
    nodes = [line for line in dot if "[label=" in line and "->" not in line]
    if dot[0] != "digraph cards {" or len(nodes) != 2 * n:
        problems.append(f"dot export has {len(nodes)} nodes, expected {2 * n}")

    graph = json.loads(text["json"])
    kinds = [node["kind"] for node in graph["nodes"]]
    if len(kinds) != 2 * n or kinds.count("card") != n:
        problems.append(f"json export has {len(kinds)} nodes, expected {n} cards plus {n} subjects")

    routes = text["routes"].splitlines()
    if not routes or routes[0] != f"{card} -> subject:{subject}":
        problems.append(f"routes does not list the direct route first: {routes[:1]}")

    notes = text["notes"].splitlines()
    if not notes or notes[-1] != f"({n * inputs.notes_per_subject} notes)":
        problems.append(f"notes list ends {notes[-1:]}, expected {n * inputs.notes_per_subject} notes")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="notecards benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    # Byte-compile once so that no child pays for compiling, whether or not
    # the environment lets children write bytecode themselves.
    compileall.compile_dir(SRC / "notecards", quiet=1)
    bench = Bench(args.workload, args.seed, bool(args.trace), args.size)
    try:
        result = bench.run(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "notecards" / "pipeline.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no notecards sources under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gen
    import layers
    from notecards.cards import CardLedger, card_to_dict
    from notecards.pipeline import Stores, audit_card, load_config

    sys.exit(main())
