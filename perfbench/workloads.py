"""Workload table, deployment environment and the pipeline the benchmark times.

A workload is a dataset config, a scale and the §8 applications run on it.
Its inputs come from ``--seed``: seed 0 is the committed config (lyft seeds
10-14, internal seeds 20-24); seed ``s`` adds ``SEED_STRIDE * s`` to all five
seeds of the config, so different seeds never share a generator stream.

The pipeline is called exactly the way the spark-submit jobs call it:
``harness.prepare(spark, name, scale)`` and then the ``harness.run_*``
drivers, in a session built by ``jobs/_common.get_spark``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import os
import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

SEED_STRIDE = 1000
SEED_FIELDS = ("world", "labels", "detector", "train_world", "train_labels")


@dataclass(frozen=True)
class Workload:
    dataset: str
    scale: float
    apps: tuple[str, ...]


#: Only ``lyft_medium`` and ``internal_small`` are declared in BENCHMARK.json.
#: The paper-scale workloads do not fit its run budget; they stay runnable
#: because their seed-0 results must equal ``benchmarks/results``. ``tiny``
#: is the cheapest run that touches every layer, for the benchmark's tests.
WORKLOADS = {
    "lyft_medium": Workload("lyft", 0.3, ("table3",)),
    "internal_small": Workload("internal", 0.26, ("table3",)),
    "lyft_paper": Workload("lyft", 1.0, ("table3", "missing_obs", "model_errors")),
    "internal_paper": Workload("internal", 1.0, ("table3", "recall")),
    "tiny": Workload("lyft", 0.05, ("table3",)),
}


#: The untimed warm-up pass runs on the smallest input of the workload's
#: dataset (two eval and two train scenes) with short scenes.
WARMUP_SCALE = 0.05
WARMUP_DURATION_S = 5.0


def program_missing() -> str | None:
    """Name the first program file the benchmark needs that is absent."""
    for rel in ("src/repro/eval/harness.py", "jobs/_common.py"):
        if not (ROOT / rel).is_file():
            return rel
    return None


def driver_memory() -> str:
    """The tier-1 formula: half of MemTotal in GiB, clamped to 2g..8g."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(max(g, 2), 8)}g"
    except OSError:
        pass
    return "2g"


def configure_env() -> dict:
    """Set the deployment settings before pyspark is imported.

    Only deployment settings live here: master, driver memory, the
    driver's address, the UI port switch, scratch directories and the
    module path the Python workers need (without ``src`` on their
    ``PYTHONPATH`` every pandas UDF fails with ``ModuleNotFoundError:
    repro``). Spark SQL settings come from ``jobs/_common.get_spark``.
    """
    cores = os.cpu_count() or 1
    mem = driver_memory()
    local, tmp = WORK / "spark-local", WORK / "tmp"
    local.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    paths = [str(ROOT / "src"), str(ROOT)]
    sys.path[:0] = [p for p in paths if p not in sys.path]
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + ([old] if old else []))
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(tmp)
    submit = [
        "--master", f"local[{cores}]",
        "--driver-memory", mem,
        "--driver-java-options", f"-Djava.io.tmpdir={tmp}",
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "pyspark-shell",
    ]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(submit)
    return {"cores": cores, "driver_memory": mem, "pyspark_submit_args": submit}


def start_session(app_name: str):
    """The program's own session plus one trivial job (JVM and executor up)."""
    from jobs._common import get_spark

    spark = get_spark(app_name)
    spark.range(1).count()
    return spark


def stop_session(spark) -> None:
    """Stop Spark, then end its JVM and wait until it has exited.

    The gateway JVM exits when its standard input closes; without the
    wait it would outlive the run until the interpreter exits.
    """
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    spark.stop()
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


def effective_conf(spark) -> dict:
    """The settings the session reports, for the run's ``info`` line."""
    keys = (
        "spark.master", "spark.driver.memory", "spark.ui.enabled",
        "spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled",
        "spark.sql.execution.arrow.pyspark.enabled",
        "spark.sql.autoBroadcastJoinThreshold",
    )
    out = {k: spark.conf.get(k, None) for k in keys}
    out["defaultParallelism"] = spark.sparkContext.defaultParallelism
    out["spark_version"] = spark.version
    return out


def shift_seeds(cfg, seed: int):
    """``cfg`` with all five of its generator seeds moved by ``seed``."""
    off = SEED_STRIDE * seed
    return dataclasses.replace(
        cfg,
        **{f: dataclasses.replace(getattr(cfg, f), seed=getattr(cfg, f).seed + off) for f in SEED_FIELDS},
    )


def config_seeds(cfg) -> dict:
    return {f: getattr(cfg, f).seed for f in SEED_FIELDS}


def workload_config(w: Workload, seed: int):
    """The config ``harness.prepare`` builds for workload ``w`` at ``seed``."""
    from repro.perception.datasets import CONFIGS

    return shift_seeds(CONFIGS[w.dataset](w.scale), seed)


@contextlib.contextmanager
def seeded_inputs(w: Workload, seed: int, **config_kwargs):
    """Make ``harness.prepare(spark, w.dataset, scale)`` build the seed's inputs.

    The program receives only the generated inputs: its config table
    entry is swapped for the seed-shifted one (built with
    ``config_kwargs``, such as a scene duration) and restored afterwards.
    """
    from repro.perception.datasets import CONFIGS

    orig = CONFIGS[w.dataset]
    CONFIGS[w.dataset] = lambda scale: shift_seeds(orig(scale, **config_kwargs), seed)
    try:
        yield
    finally:
        CONFIGS[w.dataset] = orig


def run_app(spark, prep, w: Workload, app: str) -> dict:
    from repro.eval import harness

    if app == "table3":
        return harness.run_missing_tracks_prepared(spark, prep, w.dataset)
    if app == "recall":
        return harness.run_recall(spark, prep=prep)
    if app == "missing_obs":
        return harness.run_missing_obs(spark, prep=prep)
    if app == "model_errors":
        return harness.run_model_errors(spark, prep=prep)
    raise ValueError(f"unknown application {app!r}")


@contextlib.contextmanager
def timed_build(sink: list):
    """Time the ``build_dataset`` call inside ``harness.prepare``.

    Only a clock read is added around the call: the inputs and the
    work are the ones users get.
    """
    from repro.eval import harness

    orig = harness.build_dataset

    def build(*args, **kwargs):
        t = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t)

    harness.build_dataset = build
    try:
        yield
    finally:
        harness.build_dataset = orig
