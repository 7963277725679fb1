"""One measured phase in a process of its own.

    phase.py run CONFIG [--store DIR] [--trace FILE]
        Runs ``pipeline.run_pipeline`` once and prints one JSON line: the
        monotonic instant the process was ready to start (``t_ready``), the
        phase's wall time, the bytes it passed to write calls and the run
        summary.
    phase.py cli REPORT [--trace FILE] -- ARGS...
        Runs ``notecards ARGS`` through ``cli.main`` exactly as the command
        line does, then writes exit status, total write bytes and, when
        traced, the span aggregate to REPORT.

With ``--trace`` the layer wrappers of ``layers.py`` are installed first
and the spans are written to FILE when the phase ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def wchar() -> int:
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def run_phase(args) -> int:
    from notecards.pipeline import load_config, run_pipeline

    config = load_config(Path(args.config))
    if args.store:
        config.store_root = Path(args.store)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.install(layers.RUN_TARGETS, wchar)
    t_ready = time.monotonic()
    written = wchar()
    start = time.perf_counter()
    summary = run_pipeline(config)
    run_s = time.perf_counter() - start
    written = wchar() - written
    result = {"t_ready": t_ready, "run_s": run_s, "write_bytes": written,
              "summary": summary.as_dict()}
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        tracer.write(Path(args.trace))
    print(json.dumps(result))
    return 0


def cli_phase(args) -> int:
    from notecards import cli

    tracer = None
    if args.trace:
        import layers

        tracer = layers.install(layers.CLI_TARGETS, wchar)
    status = cli.main(args.argv)
    sys.stdout.flush()
    report = {"status": status, "write_bytes": wchar()}
    if tracer is not None:
        report["trace"] = tracer.aggregate()
        tracer.write(Path(args.trace))
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return status


def main(argv: list[str]) -> int:
    # Everything after "--" belongs to the notecards command.
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("config")
    p_run.add_argument("--store")
    p_run.add_argument("--trace")
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("report")
    p_cli.add_argument("--trace")
    args = parser.parse_args(argv[:split])
    if args.mode == "cli":
        args.argv = argv[split + 1:]
        return cli_phase(args)
    return run_phase(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
