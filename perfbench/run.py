"""sdocheck benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload cli-verify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run generates the seeded corpus under
``perfbench/work/``, measures set-up in fresh interpreters, runs whole
rounds of operations until ``--seconds`` have passed, checks every report
against what the generator planted, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a separate traced phase with
``--trace 1``.  See perfbench/README.md for the workloads and metrics.

Load model: a closed loop with one client; one operation at a time, from
one process, with at most one child interpreter alive at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import corpus
from tracer import COUNTS, LAYERS

# half before the workload and half after, so that a slow few seconds of
# the host do not set the median alone
SETUP_PROBES = 12
VOCAB_FILE = "src/sdocheck/data/schemaorg.jsonld"
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _spawn(argv: list[str], env: dict, out_path: Path, err_path: Path):
    """Run one child to completion: (exit code, seconds, peak RSS in KB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def probe_setup(env: dict, work: Path, docs: list[str], count: int,
                warm_up: bool = False) -> list[dict]:
    """Import and load times of ``count`` fresh interpreters.

    With ``warm_up``, one discarded launch first writes the bytecode caches,
    so every measured launch starts from the same state.
    """
    samples = []
    for i in range(count + warm_up):
        doc = corpus.DS_FILES[docs[i % len(docs)]]
        code, _, _ = _spawn([sys.executable, str(WORKER), "setup", doc], env,
                            work / "setup.out", work / "setup.err")
        if code != 0:
            raise BenchError("set-up probe failed:\n"
                             + (work / "setup.err").read_text()[-2000:])
        if i >= warm_up:
            samples.append(json.loads((work / "setup.out").read_text()))
    return samples


# ---------------------------------------------------------------------------
# operations


class Op:
    """One operation of a round: the argv after ``sdocheck``."""

    def __init__(self, inp: corpus.Input, command: str, corpus_dir: str):
        self.input = inp
        self.command = command
        self.path = f"{corpus_dir}/{inp.name}"
        self.argv = [command, self.path, "--ds", corpus.DS_FILES[inp.doc],
                     "--fail-level", inp.fail_level]


def run_cli_rounds(ops: list[Op], seconds: float, env: dict, work: Path,
                   traced: bool, first_op: int) -> list[dict]:
    """cli-verify: every operation in a fresh interpreter."""
    records = []
    start = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            serial = first_op + len(records)
            if traced:
                trace_file = work / f"trace-{serial}.json"
                argv = [sys.executable, str(WORKER), "cli", str(trace_file),
                        str(serial), *op.argv]
            else:
                argv = [sys.executable, "-m", "sdocheck", *op.argv]
            code, elapsed, rss = _spawn(argv, env, work / "op.out",
                                        work / "op.err")
            record = {"index": index, "exit": code, "seconds": elapsed,
                      "report": (work / "op.out").read_bytes(),
                      "stderr": (work / "op.err").read_text(errors="replace"),
                      "rss_kb": rss}
            if traced and trace_file.exists():
                record["trace"] = json.loads(trace_file.read_text())
                trace_file.unlink()
            records.append(record)
        if time.perf_counter() - start >= seconds:
            return records


def run_in_process(ops: list[Op], seconds: float, env: dict, work: Path,
                   traced: bool) -> tuple[list[dict], list[dict], dict]:
    """crawl-validate and dense-page: one worker interpreter runs them all."""
    reports = work / "reports"
    reports.mkdir()
    plan = {"ops": [{"argv": op.argv} for op in ops], "seconds": seconds,
            "trace": traced, "reports": str(reports)}
    (work / "plan.json").write_text(json.dumps(plan))
    code, _, _ = _spawn([sys.executable, str(WORKER), "loop",
                         str(work / "plan.json"), str(work / "result.json")],
                        env, work / "worker.out", work / "worker.err")
    if code != 0:
        raise BenchError("worker failed:\n"
                         + (work / "worker.err").read_text()[-3000:])
    result = json.loads((work / "result.json").read_text())

    def records(rows):
        return [{"index": i, "exit": c, "seconds": s, "sha": h, "stderr": e,
                 "report": (reports / f"{i}.out").read_bytes()}
                for i, c, s, h, e in rows]

    return (records(result["ops"]), records(result.get("traced_ops", [])),
            result)


# ---------------------------------------------------------------------------
# checking


def judge(ops: list[Op], records: list[dict], snapshot: str,
          ds_names: dict) -> list[str]:
    """Mark each record ok or failed; returns unexpected failures."""
    first: dict[int, bytes] = {}
    checked: dict[tuple[int, int], list[str]] = {}
    unexpected = []
    for record in records:
        op = ops[record["index"]]
        report = record["report"]
        if "sha" in record:  # in-process: the worker kept one copy
            same = record["sha"] == hashlib.sha256(report).hexdigest()
        else:
            same = first.setdefault(record["index"], report) == report
        problems = []
        if record["exit"] not in (0, 1):
            problems.append(f"exit {record['exit']}")
        elif "Traceback (most recent call last)" in record["stderr"]:
            problems.append("traceback: "
                            + record["stderr"].strip().splitlines()[-1])
        elif not report:
            problems.append(f"exit {record['exit']} with no report")
        elif not same:
            problems.append("report differs from an earlier run on this input")
        else:
            key = (record["index"], record["exit"])
            if key not in checked:
                checked[key] = checker.check(
                    report, record["exit"], op.input, op.command,
                    op.path, snapshot, ds_names[op.input.doc])
            problems = checked[key]
        record["ok"] = not problems
        if problems and not op.input.known_fault:
            unexpected.append(f"{op.input.name}: {problems}")
    return unexpected


# ---------------------------------------------------------------------------
# metrics


def end_to_end(ok: list[dict], setup_s: float, peak_rss_kb: int,
               ops: list[Op]) -> dict:
    seconds = [r["seconds"] for r in ok]
    checked_bytes = sum(len(ops[r["index"]].input.data) for r in ok)
    return {
        "setup_s": (setup_s, "s"),
        "latency_s.p50": (statistics.median(seconds), "s"),
        "throughput_mb_s": (checked_bytes / sum(seconds) / 1e6, "MB/s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def per_layer(summaries: list[dict], n_ops: int, n_counted: int,
              import_s: float, overhead_s: float) -> dict:
    """Per-operation means: self times over ``n_ops`` traced operations,
    counts over the ``n_counted`` operations the summaries' counts cover."""
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for summary in summaries:
        for layer, value in summary["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + value
        for key, value in summary["counts"].items():
            counts[key] = counts.get(key, 0) + value
    metrics = {"cli.import_s": (import_s, "s")}
    for layer in LAYERS:
        metrics[layer + "_s"] = (self_s.get(layer, 0.0) / n_ops, "s")
    for key in COUNTS:
        unit = "bytes" if key == "report.bytes" else "count"
        metrics[key] = (counts.get(key, 0) / n_counted, unit)
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


# ---------------------------------------------------------------------------


def run(args, root: Path) -> dict:
    build = corpus.WORKLOADS[args.workload]
    bench_corpus = build(args.seed)
    work = HERE / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    corpus_dir = work / "corpus"
    bench_corpus.write(corpus_dir)
    try:
        return _measure(args, root, bench_corpus, work,
                        corpus_dir.relative_to(root).as_posix())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, root, bench_corpus, work, corpus_dir) -> dict:
    env = _env(root)
    docs = sorted({inp.doc for inp in bench_corpus.inputs})
    setup = probe_setup(env, work, docs, SETUP_PROBES // 2, warm_up=True)

    command = "verify" if args.workload == "cli-verify" else "validate"
    ops = [Op(inp, command, corpus_dir) for inp in bench_corpus.inputs]
    snapshot = checker.snapshot_id((root / VOCAB_FILE).read_bytes())
    ds_names = {doc: json.loads((root / path).read_text())["name"]
                for doc, path in corpus.DS_FILES.items()}
    traced = bool(args.trace)
    # with tracing, an untraced phase and a traced phase share the time
    seconds = args.seconds / 2 if traced else args.seconds

    if args.workload == "cli-verify":
        plain = run_cli_rounds(ops, seconds, env, work, False, 0)
        traced_records = (run_cli_rounds(ops, seconds, env, work, True,
                                         len(plain)) if traced else [])
        peak_kb = max(r["rss_kb"] for r in plain)
    else:
        plain, traced_records, result = run_in_process(ops, seconds, env,
                                                       work, traced)
        peak_kb = result["peak_rss_kb"]

    setup += probe_setup(env, work, docs, SETUP_PROBES - len(setup))
    setup_s = statistics.median(sample["setup_s"] for sample in setup)
    import_s = statistics.median(sample["import_s"] for sample in setup)

    records = plain + traced_records
    unexpected = judge(ops, records, snapshot, ds_names)
    for line in unexpected[:10]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    ok_plain = [r for r in plain if r["ok"]]
    out = {"correct": not unexpected and bool(ok_plain),
           "attempted": len(records),
           "failed": sum(1 for r in records if not r["ok"])}
    if not ok_plain:
        raise BenchError("no operation succeeded")

    if not traced:
        metrics = end_to_end(ok_plain, setup_s, peak_kb, ops)
    else:
        ok_traced = [r for r in traced_records if r["ok"]]
        if not ok_traced:
            raise BenchError("no traced operation succeeded")
        overhead = (statistics.median(r["seconds"] for r in ok_traced)
                    - statistics.median(r["seconds"] for r in ok_plain))
        if args.workload == "cli-verify":
            summaries = [r["trace"]["trace"] for r in ok_traced]
            spans = [s for r in ok_traced for s in r["trace"]["spans"]]
            n_counted = len(ok_traced)
        else:
            summaries = [result["trace"]]
            spans = result["spans"]
            n_counted = len(ops)
        missing = sorted({name for s in summaries for name in s["missing"]})
        if missing:
            print(f"perfbench: not traced, no such function: {missing}",
                  file=sys.stderr)
        metrics = per_layer(summaries, len(ok_traced), n_counted, import_s,
                            overhead)
        _write_trace(args, metrics, spans, len(ok_traced))
    out["metrics"] = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}
    return out


def _write_trace(args, metrics: dict, spans: list, n_ops: int) -> None:
    """Per-layer metrics and every span of the traced phase, for reading
    after the run; a span is [layer, start, end, parent index, operation id,
    collector pause inside]."""
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "traced_ops": n_ops,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": spans}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd().resolve()
    if not (root / "src" / "sdocheck" / "cli.py").is_file():
        print("perfbench: run from the root of an sdocheck checkout "
              "(src/sdocheck not found)", file=sys.stderr)
        return 2
    try:
        out = run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
