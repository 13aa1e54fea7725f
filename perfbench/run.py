"""Fixy benchmark: run one workload's pipeline in a fresh process and report.

    python3 perfbench/run.py --workload lyft_medium --seed 0 --seconds 40 --trace 0

A run starts the session, makes one untimed warm-up pass on a small input
and then times pipeline passes on the workload's inputs for ``--seconds``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and adds
its ``pipeline_s`` to ``perfbench/.work/history/``. ``--trace 1`` runs one
pass with layer spans instead, reports the per-layer metrics and writes
the spans, counts and Spark job counts to ``perfbench/.work/traces/``.
Every result dict is checked by ``gate.py``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from gate import Gate  # noqa: E402
from workloads import HERE, WORK, WORKLOADS, Workload, config_seeds, configure_env  # noqa: E402

#: Builds after the pipeline, so set-up time is a median of at least three.
EXTRA_BUILDS = 2


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def run_pipeline(spark, w: Workload, g: Gate, scale: float | None = None):
    """``prepare`` then every application; returns (prep, results)."""
    from repro.eval import harness

    from workloads import run_app

    prep = None
    results = {}
    try:
        prep = harness.prepare(spark, w.dataset, w.scale if scale is None else scale)
    except Exception:
        traceback.print_exc()
        g.attempted += len(w.apps)
        g.failed += len(w.apps)
        g.problems.append("prepare: raised")
        return prep, results
    for app in w.apps:
        results[app] = g.run(app, lambda: run_app(spark, prep, w, app))
    return prep, results


def cpu_times() -> dict:
    """Machine-wide busy and steal seconds so far, summed over all CPUs."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    hz = os.sysconf("SC_CLK_TCK")
    return {"busy": (v[0] + v[1] + v[2] + v[5] + v[6]) / hz, "steal": v[7] / hz}


def warm_up(spark, w: Workload, seed: int, g: Gate) -> float:
    """One untimed pass on the smallest input of the workload's dataset.

    The first pass in a JVM also starts the Python workers, JIT-compiles
    Spark and generates code. That cold cost varies between identical
    runs by more than the benchmark's bounds, so it is paid here, on
    short scenes, before the timed passes. The warm-up's result dicts
    have no reference and are not compared; an experiment that raises
    counts as failed.
    """
    from workloads import WARMUP_DURATION_S, WARMUP_SCALE, seeded_inputs

    t = time.perf_counter()
    wg = Gate(g.workload, g.dataset, seed, 2, compare=False)
    with seeded_inputs(w, seed, duration_s=WARMUP_DURATION_S):
        run_pipeline(spark, w, wg, WARMUP_SCALE)
    spark.catalog.clearCache()
    g.attempted += wg.attempted
    g.failed += wg.failed
    g.problems += [f"warm-up {p}" for p in wg.problems]
    return time.perf_counter() - t


def timed_passes(spark, w: Workload, seed: int, g: Gate, builds: list, t_window: float,
                 seconds: float):
    """Pipeline passes on the workload's inputs, each timed without its
    ``build_dataset`` call. At least one runs; another only while one
    more of the last one's length still fits ``seconds`` after
    ``t_window``. Returns the pass times, the machine's busy and steal
    CPU seconds in each pass, and the last pass's ``Prepared`` (whose
    cache is kept) and result dicts."""
    from workloads import seeded_inputs, timed_build

    passes: list[float] = []
    cpu: list[dict] = []
    with seeded_inputs(w, seed), timed_build(builds):
        while True:
            if passes:
                spark.catalog.clearCache()
            n = len(builds)
            c0 = cpu_times()
            t = time.perf_counter()
            prep, results = run_pipeline(spark, w, g)
            passes.append(time.perf_counter() - t - sum(builds[n:]))
            c1 = cpu_times()
            cpu.append({k: c1[k] - c0[k] for k in c0})
            if prep is None or time.perf_counter() - t_window + passes[-1] > seconds:
                return passes, cpu, prep, results


def untraced(args, env: dict) -> dict:
    from repro.eval import harness

    from workloads import effective_conf, start_session, stop_session, workload_config

    w = WORKLOADS[args.workload]
    spark = start_session(f"perfbench-{args.workload}")
    session_s = time.perf_counter() - T_START
    cfg = workload_config(w, args.seed)
    g = Gate(args.workload, w.dataset, args.seed, cfg.world.n_scenes)
    builds: list[float] = []
    t_window = time.perf_counter()
    warmup_s = warm_up(spark, w, args.seed, g)
    passes, cpu, prep, results = timed_passes(spark, w, args.seed, g, builds, t_window, args.seconds)
    n_obs = prep.ds.eval_obs.count() if prep else 0
    spark.catalog.clearCache()
    for _ in range(EXTRA_BUILDS):
        t = time.perf_counter()
        harness.build_dataset(spark, cfg)
        builds.append(time.perf_counter() - t)
    pipeline_s = statistics.median(passes)
    metrics = {
        "setup_s": (session_s + statistics.median(builds), "s"),
        "pipeline_s": (pipeline_s, "s"),
        "s_per_scene": (pipeline_s / cfg.world.n_scenes, "s"),
        "obs_per_s": (n_obs / pipeline_s, "1/s"),
        "driver_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "passed_frac": ((g.attempted - g.failed) / g.attempted, "frac"),
    }
    info = {
        "workload": args.workload, "dataset": w.dataset, "scale": w.scale, "apps": list(w.apps),
        "seed": args.seed, "config_seeds": config_seeds(cfg), "eval_scenes": cfg.world.n_scenes,
        "eval_obs": n_obs, "env": env, "spark_conf": effective_conf(spark),
        "session_s": session_s, "build_s": builds, "warmup_s": warmup_s,
        "pipeline_passes_s": passes, "pass_cpu_s": cpu,
        "checked_by": sorted(g.checked_by), "problems": g.problems, "results": results,
    }
    stop_session(spark)
    history = history_file(args.workload)
    history.parent.mkdir(parents=True, exist_ok=True)
    with open(history, "a") as f:
        f.write(json.dumps({"seed": args.seed, "pipeline_s": pipeline_s}) + "\n")
    return finish(g, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info)


def history_file(workload: str):
    return WORK / "history" / f"{workload}.jsonl"


def untraced_history(workload: str) -> list[float]:
    """``pipeline_s`` of the untraced runs of ``workload`` made in this checkout."""
    path = history_file(workload)
    if not path.exists():
        return []
    return [json.loads(line)["pipeline_s"] for line in path.read_text().splitlines() if line]


def traced(args, env: dict) -> dict:
    """Warm-up, then one pass with layer spans.

    ``trace.overhead_s`` is the traced pass minus the median ``pipeline_s``
    of the untraced runs made earlier in this checkout; both are a JVM's
    first pass after the warm-up. Without such runs, one untraced pass
    runs first in this JVM and serves instead."""
    from tracing import Tracer
    from workloads import effective_conf, seeded_inputs, start_session, stop_session, workload_config

    w = WORKLOADS[args.workload]
    spark = start_session(f"perfbench-{args.workload}-traced")
    cfg = workload_config(w, args.seed)
    g = Gate(args.workload, w.dataset, args.seed, cfg.world.n_scenes)
    warmup_s = warm_up(spark, w, args.seed, g)
    history = untraced_history(args.workload)
    if history:
        untraced_s, source = statistics.median(history), f"median of {len(history)} earlier untraced runs"
    else:
        passes, _, _, _ = timed_passes(spark, w, args.seed, g, [], time.perf_counter(), 0.0)
        spark.catalog.clearCache()
        untraced_s, source = passes[-1], "untraced pass in this run"
    tracer = Tracer(spark)
    with seeded_inputs(w, args.seed), tracer.installed():
        t = time.perf_counter()
        prep, results = run_pipeline(spark, w, g)
        pipeline_s = time.perf_counter() - t - tracer.seconds("perception.build")
    if prep is not None:
        tracer.finish()
    metrics = tracer.metrics(pipeline_s, untraced_s)
    info = {
        "workload": args.workload, "seed": args.seed, "config_seeds": config_seeds(cfg),
        "run_id": tracer.run_id, "env": env, "spark_conf": effective_conf(spark),
        "warmup_s": warmup_s, "untraced_pipeline_s": untraced_s, "untraced_source": source,
        "checked_by": sorted(g.checked_by), "problems": g.problems, "results": results,
    }
    stop_session(spark)
    trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}-{tracer.run_id}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    info["trace_file"] = str(trace_file.relative_to(HERE.parent))
    with open(trace_file, "w") as f:
        json.dump({**info, "spans": tracer.spans, "counts": dict(tracer.counts), "metrics": metrics},
                  f, indent=1, default=float)
    return finish(g, metrics, info)


def finish(g: Gate, metrics: dict, info: dict) -> dict:
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"info": info}, default=float))
    return {"correct": g.failed == 0, "attempted": g.attempted, "failed": g.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    from workloads import program_missing

    missing = program_missing()
    if missing:
        print(f"perfbench: {missing} not found; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    env = configure_env()
    out = (traced if args.trace else untraced)(args, env)
    print(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
