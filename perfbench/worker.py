"""Child-process side of the benchmark.  Three modes:

    worker.py setup <constraint document>
        Time importing sdocheck.cli and loading the vocabulary and one
        constraint document in this fresh interpreter; print JSON.

    worker.py loop <plan.json> <result.json>
        Run in-process ``sdocheck.cli.main(argv)`` calls, whole rounds of
        the plan's operations, until the plan's seconds are spent.  With
        tracing on, a second phase of the same length runs under the tracer.

    worker.py cli <trace.json> <op id> <sdocheck argv...>
        Run one CLI invocation under the tracer, as ``python -m sdocheck``
        would, and write the trace summary and spans to <trace.json>.

The parent puts the checkout's ``src`` first on PYTHONPATH; each mode
refuses to run against an sdocheck found anywhere else.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli() -> float:
    start = time.perf_counter()
    import sdocheck.cli
    elapsed = time.perf_counter() - start
    if SRC not in Path(sdocheck.cli.__file__).resolve().parents:
        raise SystemExit(f"sdocheck imported from {sdocheck.cli.__file__}, "
                         f"not from {SRC}")
    return elapsed


def setup(ds_path: str) -> None:
    start = time.perf_counter()
    import_s = _import_cli()
    from sdocheck import ds, vocab
    vocabulary = vocab.load_default_vocabulary()
    with open(ds_path, "rb") as handle:
        ds.load_domain_specification(handle.read(), vocabulary)
    total = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "setup_s": total}))


def _call(main, argv: list[str]) -> tuple[int, float, bytes, str]:
    """One in-process operation: (exit code, seconds, stdout, stderr)."""
    buffer = io.BytesIO()
    out = io.TextIOWrapper(buffer, encoding="utf-8")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what the interpreter would print, then exit 1
            code = 1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved
    out.flush()
    out.detach()
    return code, elapsed, buffer.getvalue(), err.getvalue()


def loop(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    _import_cli()
    import sdocheck.cli as cli
    reports = Path(plan["reports"])
    written: set[int] = set()

    def run_phase(seconds: float, tracer=None) -> tuple[list, dict | None]:
        """Whole rounds until ``seconds`` pass; also the tracer's counts
        after the first round."""
        records: list = []
        first_counts = None
        start = time.perf_counter()
        while True:
            for index, op in enumerate(plan["ops"]):
                if tracer is not None:
                    tracer.op = len(records)
                code, elapsed, stdout, stderr = _call(cli.main, op["argv"])
                if index not in written:
                    (reports / f"{index}.out").write_bytes(stdout)
                    written.add(index)
                records.append([index, code, elapsed,
                                hashlib.sha256(stdout).hexdigest(),
                                stderr[-2000:]])
            if tracer is not None and first_counts is None:
                first_counts = dict(tracer.counts)
            if time.perf_counter() - start >= seconds:
                return records, first_counts

    result = {"ops": run_phase(plan["seconds"])[0]}
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        # counts are taken over the first traced round, which starts from a
        # collected heap, so that collector counts repeat exactly too
        gc.collect()
        tracer.install()
        try:
            result["traced_ops"], first_counts = run_phase(plan["seconds"],
                                                           tracer)
        finally:
            tracer.uninstall()
        result["trace"] = tracer.summary()
        result["trace"]["counts"] = first_counts
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result))


def traced_cli(trace_path: str, op: str, argv: list[str]) -> None:
    _import_cli()
    import sdocheck.cli as cli
    from tracer import Tracer
    tracer = Tracer()
    tracer.op = int(op)
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        Path(trace_path).write_text(json.dumps(
            {"trace": tracer.summary(), "spans": tracer.spans}))
    sys.exit(code)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    elif mode == "loop":
        loop(sys.argv[2], sys.argv[3])
    elif mode == "cli":
        traced_cli(sys.argv[2], sys.argv[3], sys.argv[4:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
