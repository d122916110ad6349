"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 30 --trace 0

The workload's inputs come from ``--seed``.  After set-up (repeated
``SETUP_REPEATS`` times from cold; the median is ``setup_s``) and a
warm-up, rounds of fixed work run until ``--seconds`` have passed, then
the workload's correctness check compares sampled outputs with an
oracle.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics,
with the tracing overhead between the two.  The last line of standard
output is one JSON object; a fuller record goes to
``.bench_build/perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ("paper_flow", "serve_mixed")

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Idle OpenMP threads sleep instead of spinning.  The engine's team is
#: as wide as the host, so a spinning worker takes a core from the
#: caller's and the service's own threads; on a shared two-core host that
#: made small-job latency swing several-fold with the neighbours' load.
#: The thread count stays at the OpenMP default.
OMP_WAIT_POLICY = "passive"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_latency_ms": "ms",
    "throughput_per_s": "1/s",
}

_SECONDS = ("simulation.run_s", "simulation.delay_s", "simulation.merge_s",
            "simulation.pack_s", "simulation.other_s", "delta.select_s",
            "service.submit_s", "service.engine_s", "runtime.fingerprint_s",
            "electrical.spice_s", "core.cell_s", "core.fit_s",
            "core.order_select_s", "core.charz_other_s", "analysis.arrivals_s",
            "analysis.energy_s", "timing.sta_s", "avfs.loop_s",
            "avfs.loop_self_s", "avfs.decide_s")
_COUNTS = ("simulation.runs", "simulation.gate_evaluations",
           "simulation.kernel_calls", "simulation.kernel_iterations",
           "simulation.retries", "simulation.batches",
           "simulation.lanes_skipped", "delta.selected", "delta.lanes_spliced",
           "runtime.fingerprint_calls", "electrical.spice_evals")

#: Metrics the workloads read off the program's own reports, per round.
_WORKLOAD_LAYER = {
    "service.batches": "count",
    "service.jobs_per_batch": "count",
    "service.slots_per_batch": "count",
    "service.cache_hit_rate": "ratio",
    "service.duplicate_dispatches": "count",
    "service.jobs_failed": "count",
    "service.generator_late_ms": "ms",
    "avfs.iterations": "count",
    "avfs.spliced_iterations": "count",
}

_SETUP_PARTS = ("prepare", "compile", "charz", "vf_table", "warmup")

#: The workloads' own headline figures (median over the run's samples;
#: ``serve_tail_ms`` is the highest percentile with ten samples beyond).
NAMED = {
    "table1_meps": "M/s",
    "table2_sweep_s": "s",
    "serve_jobs_per_s": "1/s",
    "serve_p50_ms": "ms",
    "serve_tail_ms": "ms",
    "loop_iters_per_s": "1/s",
    "charz_fixed_s": "s",
    "charz_adaptive_s": "s",
    "charz_spice_evals": "count",
    "charz_worst_error": "ratio",
}

PER_LAYER = {
    **{name: "s" for name in _SECONDS},
    **{name: "count" for name in _COUNTS},
    "simulation.ns_per_evaluation": "ns",
    "simulation.active_fraction": "ratio",
    "delta.splice_fraction": "ratio",
    "service.submit_p50_ms": "ms",
    **_WORKLOAD_LAYER,
    **{f"setup.{part}_s": "s" for part in _SETUP_PARTS},
    "setup.plane_warmup_s": "s",
    **NAMED,
    "trace.op_latency_ms": "ms",
    "trace.untraced_op_latency_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.rounds": "count",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up (self-tests only)")
    return parser.parse_args(argv)


def _isolate() -> str:
    """Keep every file the program writes inside the checkout.

    Returns a fresh per-run scratch directory (coefficient caches).
    """
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The native kernels are compiled once per checkout and reused.
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "xdg")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    # Read once, when the kernels load.
    os.environ["OMP_WAIT_POLICY"] = OMP_WAIT_POLICY
    scratch = tempfile.mkdtemp(dir=tmp, prefix="run-")
    os.environ["REPRO_CHARZ_CACHE"] = os.path.join(scratch, "default-charz")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return scratch


def _measure(workload, seconds: float, trace: bool):
    """Rounds until ``seconds`` have passed; odd rounds traced if asked."""
    plain, traced = [], []
    recorder = None
    if trace:
        from perfbench import tracing
        recorder = tracing.SpanRecorder()
        recorder.ids["workload"] = workload.name
    start = time.perf_counter()
    index = 0
    while True:
        if trace and index % 2 == 1:
            recorder.ids["round"] = index
            workload.mark = recorder.ids.update
            patcher = tracing.install(recorder, workload.call_sites(),
                                      workload.spice_instances())
            try:
                traced.append(workload.run_round(index))
            finally:
                patcher.restore()
                workload.mark = None
        else:
            plain.append(workload.run_round(index))
        index += 1
        if time.perf_counter() - start >= seconds and (
                not trace or traced):
            return plain, traced, recorder


def _pooled(rounds, key):
    return [v for r in rounds for v in r.named.get(key, ())]


def _named(rounds, stats, worst_error, setup_parts):
    """The workload's headline figures from its untraced rounds.

    ``charz_fixed_s`` is the cold fixed-grid characterization (with the
    kernel compile) every set-up performs, as a median over set-ups.
    """
    out = {name: 0.0 for name in NAMED}
    out["charz_fixed_s"] = stats.median(
        [p.get("charz", 0.0) for p in setup_parts])
    for name in ("table1_meps", "table2_sweep_s", "serve_jobs_per_s",
                 "loop_iters_per_s", "charz_adaptive_s",
                 "charz_spice_evals"):
        values = _pooled(rounds, name)
        if values:
            out[name] = stats.median(values)
    latency = stats.summarize(_pooled(rounds, "serve_latency_ms"))
    if latency["n"]:
        out["serve_p50_ms"] = latency["median"]
        out["serve_tail_ms"] = latency["tail"] or 0.0
    if worst_error is not None:
        out["charz_worst_error"] = worst_error
    return out


def _latency(rounds, stats) -> float:
    """Median over rounds of each round's median operation latency."""
    return stats.median([stats.median(r.latency_ms) for r in rounds
                         if r.latency_ms])


def _throughput(rounds, stats) -> float:
    """Median over rounds of each round's units of work per second."""
    values = [r.work / r.work_seconds for r in rounds if r.work_seconds]
    return stats.median(values) if values else 0.0


def _workload_layer(rounds, stats):
    per = 1.0 / max(len(rounds), 1)
    total = {}
    for r in rounds:
        for key, value in r.layer.items():
            total[key] = total.get(key, 0.0) + value
    batches = total.get("service.batches", 0.0)
    jobs = total.get("service.jobs", 0.0)
    late = _pooled(rounds, "serve_generator_late_ms")
    return {
        "service.batches": batches * per,
        "service.jobs_per_batch": (total.get("service.jobs_batched", 0.0)
                                   / batches if batches else 0.0),
        "service.slots_per_batch": (total.get("service.slots_dispatched", 0.0)
                                    / batches if batches else 0.0),
        "service.cache_hit_rate": (total.get("service.cache_hits", 0.0) / jobs
                                   if jobs else 0.0),
        "service.duplicate_dispatches":
            total.get("service.duplicate_dispatches", 0.0) * per,
        "service.jobs_failed": total.get("service.jobs_failed", 0.0) * per,
        "service.generator_late_ms": stats.median(late) if late else 0.0,
        "avfs.iterations": total.get("avfs.iterations", 0.0) * per,
        "avfs.spliced_iterations":
            total.get("avfs.spliced_iterations", 0.0) * per,
    }


def run(args, scratch: str) -> dict:
    from perfbench import stats
    from perfbench.common import SetupClock
    from repro.simulation.backend import resolve_backend

    # Load (and on a fresh checkout compile) the native kernels before
    # anything is timed.
    backend = resolve_backend(None).name
    module = importlib.import_module(f"perfbench.{args.workload}")
    workload = module.Workload(args.seed, scratch, smoke=args.smoke)
    try:
        setups, parts = [], []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            clock = SetupClock()
            start = time.perf_counter()
            workload.setup(clock)
            setups.append(time.perf_counter() - start)
            parts.append(clock.parts)
        start = time.perf_counter()
        workload.warm_up()
        plane_warmup = time.perf_counter() - start

        plain, traced, recorder = _measure(workload, args.seconds,
                                           bool(args.trace))
        checked, mismatches = workload.check()
        demotions = workload.demotions()
    finally:
        workload.close()

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = min(attempted, sum(r.failed for r in rounds) + len(mismatches))
    latency = stats.summarize([v for r in plain for v in r.latency_ms])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "default"),
        "omp_wait_policy": os.environ["OMP_WAIT_POLICY"],
        "backend": backend,
        "demotions": demotions,
        "operation": workload.unit,
        "rounds": len(plain),
        "setup_s": setups,
        "op_latency_ms": latency,
        "checked": checked,
        "mismatches": mismatches,
        "named": _named(plain, stats, getattr(workload, "worst_error", None),
                        parts),
        "samples": {key: stats.summarize(_pooled(plain, key))
                    for key in sorted({k for r in plain for k in r.named})},
    }
    metrics = {
        "setup_s": stats.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_latency_ms": stats.finite(_latency(plain, stats)),
        "throughput_per_s": _throughput(plain, stats),
    }
    if args.trace:
        from perfbench import tracing
        layer = tracing.layer_metrics(recorder, len(traced))
        layer.update(_workload_layer(traced, stats))
        for part in _SETUP_PARTS:
            layer[f"setup.{part}_s"] = stats.median(
                [p.get(part, 0.0) for p in parts])
        layer["setup.plane_warmup_s"] = plane_warmup
        layer.update(record["named"])
        traced_latency = _latency(traced, stats)
        layer["trace.op_latency_ms"] = stats.finite(traced_latency)
        layer["trace.untraced_op_latency_ms"] = metrics["op_latency_ms"]
        layer["trace.overhead_pct"] = stats.finite(
            (traced_latency / _latency(plain, stats) - 1.0) * 100.0)
        layer["trace.rounds"] = len(traced)
        record["per_layer"] = layer
        metrics = {name: layer[name] for name in PER_LAYER}
        units = PER_LAYER
        trace_path = BUILD / "perfbench" / (
            f"{args.workload}-seed{args.seed}-spans.jsonl")
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        recorder.write(str(trace_path))
    else:
        units = END_TO_END
    record["metrics"] = metrics
    return {
        "record": record,
        "result": {
            "correct": not mismatches and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]),
                               "unit": units[name]} for name in units},
        },
    }


def _report(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} nproc={record['nproc']} "
          f"backend={record['backend']} demotions={record['demotions']} "
          f"omp_threads={record['omp_threads']} "
          f"omp_wait_policy={record['omp_wait_policy']} "
          f"rounds={record['rounds']}")
    latency = record["op_latency_ms"]
    tail = (f", p{latency['tail_pct']:g} {latency['tail']:.4g} ms"
            if latency["tail"] is not None else "")
    print(f"  operation: {record['operation']['op']}: median "
          f"{latency['median']:.4g} ms{tail}, trimmed mean "
          f"{latency['trimmed_mean']:.4g} ms (n={latency['n']})")
    print(f"  set-up: median of {len(record['setup_s'])}: "
          + ", ".join(f"{s:.3f}" for s in record["setup_s"]) + " s")
    for name, value in record["named"].items():
        if value:
            print(f"  {name}: {value:.6g} {NAMED[name]}")
    for name, summary in record["samples"].items():
        tail = (f", p{summary['tail_pct']:g} {summary['tail']:.4g}"
                if summary["tail"] is not None else "")
        print(f"  sample {name}: median {summary['median']:.4g}{tail} "
              f"(n={summary['n']})")
    print(f"  correctness: {record['checked']} checked, "
          f"{len(record['mismatches'])} mismatches")
    for line in record["mismatches"][:10]:
        print(f"    {line}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    scratch = _isolate()
    try:
        outcome = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = outcome["record"]
    _report(record)
    out = BUILD / "perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, default=str))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
