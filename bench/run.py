"""The repository benchmark: four workloads, end-to-end and layer metrics.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE] [--pin]
    python3 bench/run.py --compare A.jsonl B.jsonl

Run from the repository root.  Without ``--workload`` all four
workloads run (``figures``, ``scale``, ``campaigns``, ``serve``; see
``bench/README.md`` for why each exists).  ``--trace 0`` (the default)
measures the end-to-end metrics untraced; ``--trace 1`` measures only
the per-layer metrics, with spans around the program's public
functions; a bare ``--trace`` does both and reports the tracing
overhead.  Every metric is printed with its unit and sample count, and
the last line of output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every correctness check passed.
``--out`` appends one JSON record per workload run to a file; two such
files compare with ``--compare``.  ``--pin`` (seed 0 only) records the
run's outputs in ``bench/expected.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
EXPECTED = BENCH / "expected.json"
WORKLOADS = ("figures", "scale", "campaigns", "serve")
#: Cold starts per run; setup_s is their median.
SETUP_STARTS = 7
#: Per-layer times reported for every workload (all four reach them).
TIME_LAYERS = ("engines.run", "runner.deploy", "hdfs.import",
               "workloads.plan")
#: Counters reported per pass (serve: per block of requests).
COUNTS = ("cluster.sim_events", "cluster.flows", "engines.runs",
          "engines.failed_runs", "runner.runs", "hdfs.files",
          "validation.audits", "validation.digests", "parallel.tasks",
          "parallel.failures", "checkpoint.records", "serve.cache.hits",
          "serve.cache.misses", "serve.cache.entries",
          "serve.pool.attempts", "serve.pool.retries")

import layers  # noqa: E402  (bench/ is the script directory)
import stats  # noqa: E402
from batch import JOBS  # noqa: E402


class Run:
    """One workload run: samples, outputs, problems and layer data."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.samples: Dict[str, List[float]] = {}
        #: Point estimates that are not the plain median of ``samples``.
        self.estimates: Dict[str, float] = {}
        self.metrics: Dict[str, float] = {}
        self.outputs: Dict[str, object] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0.0
        self.layers: Dict[str, object] = {}
        self.info: Dict[str, object] = {}

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def value(self, name: str) -> float:
        if name in self.estimates:
            return self.estimates[name]
        return stats.median(self.samples[name])

    def outputs_digest(self) -> str:
        from repro.validation.digest import digest_payload
        return digest_payload(self.outputs)

    def record(self) -> Dict[str, object]:
        return {"workload": self.workload, "seed": self.seed,
                "seconds": self.seconds, "trace": self.trace,
                "passes": self.passes, "metrics": self.metrics,
                "n": {k: len(v) for k, v in self.samples.items()},
                "samples": {k: v for k, v in self.samples.items()
                            if len(v) <= 50},
                "outputs_digest": self.outputs_digest(),
                "outputs": self.outputs,
                "problems": self.problems, "attempted": self.attempted,
                "failed": self.failed, "correct": self.correct,
                "layers": self.layers, "info": self.info,
                "python": platform.python_version(),
                "cpus": os.cpu_count()}


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def run_batch(run: Run, work: Path, traced: bool) -> None:
    from batch import BATCH
    workload = BATCH[run.workload](run.seed, work)
    workload.prepare()  # before install: the gate's digests stay untraced
    recorder = uninstall = None
    if traced:
        spool = work / "spool"
        spool.mkdir()
        recorder = layers.Recorder(spool)
        uninstall = layers.install(recorder)
    passes = []
    main_rows: Counter = Counter()
    main_counts: Counter = Counter()
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < run.seconds:
            done = workload.one_pass()
            if recorder is not None:
                spans, counts = recorder.take()
                main_rows.update(layers.tile(spans, done.wall_ns))
                main_counts.update(counts)
            passes.append(done)
    finally:
        if uninstall is not None:
            uninstall()
    run.passes = len(passes)
    run.attempted = sum(p.attempted for p in passes)
    run.failed = sum(len(p.broken) for p in passes)
    first = passes[0]
    run.outputs = first.outputs
    for p in passes:
        run.problems.extend(p.broken)
        if p.outputs != first.outputs:
            run.problems.append("a repeated pass produced other outputs")
    steps: Dict[str, List[int]] = {}
    for p in passes:
        for op in p.ops:
            steps.setdefault(op.label, []).append(op.ns)
    # A pass's time as the sum of its steps' medians: a noisy moment that
    # slows different steps in different passes drops out.
    pass_ns = sum(stats.median(v) for v in steps.values())
    run.samples["wall_s"] = [p.wall_ns / 1e9 for p in passes]
    run.estimates = {"wall_s": pass_ns / 1e9}
    if traced:
        spool_data = layers.merge_spool(layers.read_spool(work / "spool"))
        finish_layers(run, sum(p.wall_ns for p in passes), main_rows,
                      main_counts, spool_data, statz=None)
    else:
        run.samples["setup_s"] = probe_setup(run.workload, run.seed)


def probe_setup(workload: str, seed: int) -> List[float]:
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter_ns()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        line = proc.stdout.readline()
        elapsed = time.perf_counter_ns() - start
        proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"(exit {proc.returncode})")
        times.append(elapsed / 1e9)
    return times


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def run_serve(run: Run, work: Path, traced: bool) -> None:
    import serving
    from repro.validation.digest import digest_payload
    from repro.validation.invariants import InvariantChecker
    cache = work / "cache"
    spool = work / "spool" if traced else None
    if spool is not None:
        spool.mkdir()
    env = serving.server_env(ROOT)
    proc, port, _ = serving.start_server(
        serving.server_command(ROOT, cache, spool), env, work)
    try:
        replies, start, end, waits = asyncio.run(
            serving.drive(port, run.seed, run.seconds))
        _status, statz = asyncio.run(serving.http(port, "GET", "/statz"))
        serving.stop_server(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    problems, attempts = serving.check_replies(replies)
    run.problems.extend(problems)
    ledger = statz["ledger"]
    if ledger["sim_attempts"] != attempts or ledger["sim_retried"]:
        run.problems.append(
            f"{ledger['sim_attempts']} simulation attempts "
            f"({ledger['sim_retried']} retried); the stream needs exactly "
            f"{attempts}: a cell or repeat request simulated")
    checker = InvariantChecker()
    checker.audit_serving(ledger)
    run.problems.extend(f"audit_serving: {v}" for v in checker.violations)
    if ledger["in_flight"]:
        run.problems.append(f"{ledger['in_flight']} requests still in "
                            f"flight after the loop")
    ordered = [replies[i] for i in sorted(replies)]
    run.attempted = len(ordered)
    run.failed = sum(1 for r in ordered if r.status != 200)
    run.outputs = {"answers": digest_payload(
        [r.answer_digest for r in ordered[:serving.MIN_REQUESTS]])}
    blocks = serving.block_times(replies, start)
    run.passes = len(ordered) / serving.BLOCK
    run.samples["wall_s"] = [b / 1e9 for b in blocks]
    run.samples["p50_ms"] = [r.latency_ns / 1e6 for r in ordered]
    cold = [r.latency_ns / 1e6 for r in ordered if r.kind == "cold"]
    run.info = {
        "requests": len(ordered), "rps": len(ordered) / ((end - start) / 1e9),
        "classes": dict(Counter(r.kind for r in ordered)),
        "cold_p50_ms": stats.median(cold), "dependency_waits": waits,
        "sim_attempts": ledger["sim_attempts"]}
    if traced:
        spool_data = layers.merge_spool(layers.read_spool(spool))
        window = end - start
        busy = layers.covered([(r.start_ns, r.end_ns) for r in ordered])
        main_rows = Counter({"serve.client": busy,
                             "unattributed": window - busy})
        latency = sum(r.latency_ns for r in ordered)
        server = sum(ns for layer, ns in spool_data["server_top"].items()
                     if layer != "checkpoint.open")
        run.info["serve.unattributed_ms"] = (
            (latency - server) / len(ordered) / 1e6)
        # Awaiting a worker minus the worker's own time: fork, pipe, slot.
        run.info["serve.pool.overhead_s"] = (
            (spool_data["self"]["server"]["serve.pool.run"]
             - spool_data["worker_busy_ns"]) / run.passes / 1e9)
        finish_layers(run, window, main_rows, Counter(), spool_data,
                      statz=statz)
    else:
        setup_cache = work / "setup-cache"
        serving.copy_journal_prefix(cache, setup_cache, serving.SETUP_RECORDS)
        run.samples["setup_s"] = [ns / 1e9 for ns in serving.restart_times(
            ROOT, setup_cache, env, work, SETUP_STARTS)]


# ----------------------------------------------------------------------
# layer tables and metrics
# ----------------------------------------------------------------------
def finish_layers(run: Run, wall_ns: int, rows: Counter,
                  main_counts: Counter, spool: Dict[str, object],
                  statz: Optional[dict]) -> None:
    """Per-layer metrics (per pass) and the tables behind them.

    ``rows`` tile the benchmark process's measured ``wall_ns``; worker
    and server self times from the spool are added per layer beside it.
    """
    per = run.passes
    counts: Counter = Counter(spool["counts"]) + main_counts
    selfs = Counter(rows)
    del selfs["unattributed"]
    for role in ("server", "worker"):
        selfs.update(spool["self"][role])
    if statz is not None:
        cache = statz["cache"]
        counts["serve.cache.hits"] = cache["hits"]
        counts["serve.cache.misses"] = cache["misses"]
        counts["serve.cache.entries"] = cache["entries"]
        counts["serve.pool.attempts"] = statz["ledger"]["sim_attempts"]
        counts["serve.pool.retries"] = statz["ledger"]["sim_retried"]
    for layer in TIME_LAYERS:
        run.metrics[f"{layer}_s"] = selfs[layer] / per / 1e9
    run.metrics["cluster.us_per_event"] = (
        selfs["engines.run"] / 1e3 / max(counts["engines.events"], 1))
    run.metrics["bench.unattributed_s"] = rows["unattributed"] / per / 1e9
    for name in COUNTS:
        run.metrics[name] = counts[name] / per
    map_ns = rows.get("parallel.map", 0)
    run.layers = {
        "wall_ns": wall_ns, "per": per,
        "main": dict(rows),
        "server": dict(spool["self"]["server"]),
        "worker": dict(spool["self"]["worker"]),
        "counts": dict(counts),
        "worker_busy_ns": spool["worker_busy_ns"],
        # Share of the fan-out's worker slots spent inside traced calls.
        "slot_efficiency": (spool["worker_busy_ns"] / (map_ns * JOBS)
                            if map_ns and spool["worker_busy_ns"] else None),
    }


def end_to_end(run: Run) -> None:
    run.samples["peak_rss_mb"] = [max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024]
    for name in ("wall_s", "p50_ms", "setup_s", "peak_rss_mb"):
        if name in run.samples:
            run.metrics[name] = run.value(name)
    if "p50_ms" not in run.samples and "wall_s" in run.metrics:
        # BENCHMARK.json asks for every end-to-end metric on every
        # workload.  A batch workload's one operation is its whole pass,
        # so its latency is wall_s; it has no samples of its own and
        # --compare judges it once, as wall_s.
        run.metrics["p50_ms"] = run.metrics["wall_s"] * 1000


# ----------------------------------------------------------------------
# correctness against the pins
# ----------------------------------------------------------------------
def check_expected(run: Run, expected: Dict[str, dict]) -> None:
    if run.seed != 0:
        return
    pinned = expected.get(run.workload)
    if pinned is None:
        run.problems.append(f"no pinned outputs for {run.workload} in "
                            f"{EXPECTED.name}; run --pin at seed 0")
        return
    for key, want in pinned.items():
        if run.outputs.get(key) != want:
            run.problems.append(f"{key}: output {run.outputs.get(key)!r} "
                                f"differs from the pinned {want!r}")


def pin(run: Run) -> None:
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected[run.workload] = run.outputs
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def units(spec: Dict[str, object]) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def describe(run: Run, spec: Dict[str, object]) -> List[str]:
    unit = units(spec)
    lines = [f"== {run.workload}: seed {run.seed}, {run.seconds:g} s window, "
             f"{run.passes:g} passes, trace {run.trace} =="]
    for name, values in run.samples.items():
        q1, q3 = stats.quartiles(values)
        line = (f"  {name:14s} {run.value(name):12.4f} "
                f"{unit[name]:6s} n={len(values):<5d} "
                f"q1..q3 {q1:.4f}..{q3:.4f}")
        found = stats.tail(values)
        if found is not None and found[0] > 50:
            line += f"  p{found[0]:g} {found[1]:.4f}"
        lines.append(line)
    if "p50_ms" in run.metrics and "p50_ms" not in run.samples:
        lines.append(f"  {'p50_ms':14s} {run.metrics['p50_ms']:12.4f} "
                     f"{unit['p50_ms']:6s} = wall_s: one operation is the "
                     f"whole pass")
    for key, value in run.info.items():
        shown = f"{value:.4f}" if isinstance(value, float) else value
        lines.append(f"  {key:14s} {shown}")
    if run.layers:
        lines.extend(layer_table(run))
    verdict = "ok" if run.correct else "FAILED"
    lines.append(f"  outputs_digest {run.outputs_digest()[:16]}  "
                 f"attempted {run.attempted}, failed {run.failed}, "
                 f"checks {verdict}")
    lines.extend(f"  ! {p}" for p in run.problems[:20])
    return lines


def layer_table(run: Run) -> List[str]:
    lay = run.layers
    per = lay["per"]
    wall = lay["wall_ns"]
    lines = [f"  layer table, benchmark process, per pass "
             f"(wall {wall / per / 1e9:.4f} s):"]
    rows = sorted(lay["main"].items(), key=lambda kv: -kv[1])
    for name, ns in rows:
        lines.append(f"    {name:24s} {ns / per / 1e9:10.4f} s "
                     f"{100 * ns / wall:6.1f}%")
    lines.append(f"    {'total':24s} {wall / per / 1e9:10.4f} s")
    for role in ("server", "worker"):
        if lay[role]:
            lines.append(f"  {role} processes, self time summed per layer, "
                         f"per pass:")
            for name, ns in sorted(lay[role].items(), key=lambda kv: -kv[1]):
                lines.append(f"    {name:24s} {ns / per / 1e9:10.4f} s")
    if lay["worker_busy_ns"]:
        lines.append(f"    worker busy {lay['worker_busy_ns'] / per / 1e9:.4f}"
                     f" s per pass, slot efficiency {lay['slot_efficiency']}")
    return lines


def final_line(records: List[dict], spec: Dict[str, object]) -> str:
    unit = units(spec)
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}/"
        for name, value in rec["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit[name]}
    return json.dumps({"correct": all(r["correct"] for r in records),
                       "attempted": sum(r["attempted"] for r in records),
                       "failed": sum(r["failed"] for r in records),
                       "metrics": metrics})


def run_each(child_args: List[str], out: Optional[str],
             spec: Dict[str, object]) -> int:
    """All workloads, each in a fresh child process, so every number
    (peak RSS above all) is what a one-workload invocation measures.
    Each child prints its own report; the last line covers them all."""
    records_file = BENCH / ".work" / f"all-{os.getpid()}.jsonl"
    records_file.parent.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, *child_args,
                            "--workload", name, "--out", str(records_file)],
                           check=False)
        lines = records_file.read_text().splitlines()
    finally:
        records_file.unlink(missing_ok=True)
    records = [json.loads(line) for line in lines]
    if out:
        with open(out, "a", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    print(final_line(records, spec))
    return 0 if len(records) == len(WORKLOADS) and all(
        r["correct"] for r in records) else 1


def compare(path_a: str, path_b: str, spec: Dict[str, object]) -> int:
    def load(path: str) -> Dict[str, Dict[str, List[float]]]:
        out: Dict[str, Dict[str, List[float]]] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    # A metric without samples of its own copies another
                    # one (p50_ms of a batch workload); judge it once.
                    measured = rec.get("n", rec["metrics"])
                    for name, value in rec["metrics"].items():
                        if name in measured:
                            out.setdefault(rec["workload"], {}).setdefault(
                                name, []).append(value)
        return out

    rows = stats.compare_sets(load(path_a), load(path_b), spec["end_to_end"])
    print(f"{'workload':10s} {'metric':12s} {'A median':>12s} "
          f"{'B median':>12s} {'worse':>8s} {'bound':>6s}")
    for r in rows:
        flag = ("  REGRESSION" if r["regression"] else
                "  unresolved" if r["unresolved"] else "")
        print(f"{r['workload']:10s} {r['metric']:12s} {r['base']:12.4f} "
              f"{r['new']:12.4f} {100 * r['worse']:+7.2f}% "
              f"{100 * r['bound']:5.0f}%{flag}  (n={r['n_base']}/"
              f"{r['n_new']} {r['unit']})")
    return 1 if any(r["regression"] for r in rows) else 0


# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: str,
                 spec: Dict[str, object], expected: Dict[str, dict],
                 pinning: bool) -> Run:
    run = Run(name, seed, seconds, trace)
    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        runner = run_serve if name == "serve" else run_batch
        if trace in ("0", "both"):
            runner(run, work, traced=False)
            end_to_end(run)
        if trace in ("1", "both"):
            traced = Run(name, seed, seconds, trace)
            shutil.rmtree(work)
            work.mkdir()
            runner(traced, work, traced=True)
            if trace == "1":
                run = traced
            else:
                merge_traced(run, traced)
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        # A check that cannot finish (a server that does not drain, a
        # reply that is not HTTP, a failed set-up probe) is a failed run:
        # it still ends in the JSON line, with correct false.
        run.problems.append(f"run aborted: {type(exc).__name__}: {exc}")
        run.attempted = max(run.attempted, 1)
        run.failed = max(run.failed, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = []
    if trace in ("0", "both"):
        wanted += spec["end_to_end"]
    if trace in ("1", "both"):
        wanted += spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    if not pinning:
        check_expected(run, expected)
    return run


def merge_traced(run: Run, traced: Run) -> None:
    """Fold a traced run into its untraced twin: layer metrics, the
    tracing overhead, and the requirement of identical outputs."""
    run.metrics.update({k: v for k, v in traced.metrics.items()
                        if k not in run.metrics})
    run.layers = traced.layers
    plain = run.value("wall_s")
    with_trace = traced.value("wall_s")
    run.info["trace_overhead_s"] = with_trace - plain
    run.info["trace_overhead_pct"] = 100 * (with_trace - plain) / plain
    run.info.update({k: v for k, v in traced.info.items()
                     if k not in run.info})
    run.problems.extend(f"traced: {p}" for p in traced.problems)
    run.failed += traced.failed
    run.attempted += traced.attempted
    if traced.outputs_digest() != run.outputs_digest():
        run.problems.append("traced outputs differ from untraced outputs")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four, each in "
                             "its own process)")
    parser.add_argument("--seed", type=int, default=0)
    # Part of the interface of a BENCHMARK.json command: whatever runs it
    # calls `command --workload W --seed N --seconds S --trace 0|1`.
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"))
    parser.add_argument("--out", default=None,
                        help="append one JSON record per workload run")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's outputs as the pins")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    if args.pin and args.seed != 0:
        parser.error("--pin records seed 0 only")
    seconds = (args.seconds if args.seconds is not None
               else float(spec["run_seconds"]))
    if args.workload is None:
        child = ["--seed", str(args.seed), "--trace", args.trace,
                 "--seconds", repr(seconds)] + (["--pin"] if args.pin else [])
        return run_each(child, args.out, spec)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    run = run_workload(args.workload, args.seed, seconds, args.trace, spec,
                       expected, args.pin)
    print("\n".join(describe(run, spec)), flush=True)
    record = run.record()
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    if args.pin:
        pin(run)
    print(final_line([record], spec))
    return 0 if run.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
