"""Traced runs: one span per layer call, layer counts and Spark job counts.

Spans are recorded from the benchmark's own files. Each layer's public
function is wrapped wherever a loaded ``repro`` module bound it by name,
so the program carries no tracing code and is restored afterwards.

Spark evaluates lazily, so a wrapped function that returns a DataFrame
has its result persisted and counted inside its span: the span then
holds that layer's work, and later layers read the cached rows. That
materialisation, and the count queries run between spans, are the
tracing overhead that ``trace.overhead_s`` reports.

Jobs are attributed to the innermost open span's layer through Spark job
groups and counted from the status tracker, which works with the UI off.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
import uuid
from collections import defaultdict

import numpy as np

#: (module, function, span name, layer). Spans nest in call order.
TARGETS = (
    ("repro.eval.harness", "prepare", "harness.prepare", "harness"),
    ("repro.eval.harness", "run_missing_tracks_prepared", "harness.table3", "harness"),
    ("repro.perception.datasets", "build_dataset", "perception.build", "perception"),
    ("repro.core.distributions", "learn_feature_distributions", "distributions.learn", "distributions"),
    ("repro.association.bundler", "assign_bundles", "bundler.assign", "bundler"),
    ("repro.association.tracker", "assign_tracks", "tracker.assign", "tracker"),
    ("repro.core.scoring", "with_feature_logps", "scoring.logp", "scoring"),
    ("repro.core.scoring", "score_components", "scoring.components", "scoring"),
    ("repro.core.scoring", "rank_components", "scoring.rank", "scoring"),
    ("repro.baselines.model_assertions", "consistency_candidates", "baselines.consistency", "baselines"),
)

#: Layers whose spans run Spark jobs (``kde`` fits run on the driver only).
JOB_LAYERS = ("perception", "distributions", "bundler", "tracker", "scoring", "baselines", "harness")

#: Values per feature fed to the driver-side KDE timing; enough for a
#: steady rate while keeping the timing to a few seconds.
KDE_TIMING_VALUES = 16384

PER_LAYER = (
    ("perception.build_s", "s"), ("perception.eval_obs", "count"),
    ("perception.train_labels", "count"), ("perception.scenes", "count"),
    ("distributions.learn_s", "s"), ("distributions.values", "count"),
    ("distributions.fits", "count"), ("kde.points", "count"),
    ("kde.evals", "count"), ("kde.eval_s", "s"), ("kde.evals_per_s", "1/s"),
    ("scoring.logp_s", "s"), ("scoring.scored_obs", "count"),
    ("scoring.components_s", "s"), ("scoring.components", "count"),
    ("scoring.rank_s", "s"), ("scoring.ranked", "count"),
    ("bundler.assign_s", "s"), ("bundler.matches", "count"),
    ("bundler.bundles", "count"), ("bundler.match_rate", "frac"),
    ("tracker.assign_s", "s"), ("tracker.tracks", "count"), ("tracker.obs_per_track", "obs/track"),
    ("baselines.consistency_s", "s"), ("baselines.flagged_tracks", "count"),
    ("harness.prepare_s", "s"), ("harness.table3_s", "s"), ("harness.table3_self_s", "s"),
    ("funnel.obs", "count"), ("funnel.bundles", "count"), ("funnel.tracks", "count"),
    ("funnel.model_only_tracks", "count"), ("funnel.count_ok_tracks", "count"),
    ("funnel.ranked", "count"),
    *((f"{layer}.{what}", "count") for layer in JOB_LAYERS for what in ("jobs", "tasks")),
    ("spark.failed_tasks", "count"), ("spark.jvm_peak_rss_mb", "MB"),
    ("trace.pipeline_s", "s"), ("trace.overhead_s", "s"),
)


def _materialise(df):
    df = df.persist()
    return df, df.count()


class Tracer:
    """Spans and counts of one traced pipeline run, kept in memory."""

    def __init__(self, spark):
        self.spark = spark
        self.sc = spark.sparkContext
        self.run_id = uuid.uuid4().hex[:12]
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[dict] = []
        self._logp_inputs: list[tuple] = []
        self.prep = None

    def _now(self) -> float:
        return time.perf_counter() - self.t0

    def _set_group(self, bookkeeping: bool = False) -> None:
        top = None if bookkeeping or not self._stack else self._stack[-1]
        layer = top["layer"] if top else "trace"
        self.sc.setJobGroup(f"{self.run_id}:{layer}", top["name"] if top else "trace bookkeeping")

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1]["id"] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "layer": layer, "parent": parent,
               "run_id": self.run_id, "start": self._now(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        self._set_group()
        try:
            yield rec
        finally:
            rec["end"] = self._now()
            self._stack.pop()
            self._set_group()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_seconds(self, name: str) -> float:
        total = 0.0
        for s in self.spans:
            if s["name"] == name:
                kids = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == s["id"])
                total += s["end"] - s["start"] - kids
        return total

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = n_train = None
            with self.span(name, layer):
                out = fn(*args, **kwargs)
                if hasattr(out, "persist"):
                    out, rows = _materialise(out)
                elif name == "perception.build":
                    out.eval_obs, rows = _materialise(out.eval_obs)
                    out.train_labels, n_train = _materialise(out.train_labels)
            self._set_group(bookkeeping=True)
            try:
                self._after(name, out, rows, args, kwargs, n_train)
            finally:
                self._set_group()
            return out

        return traced

    def _after(self, name, out, rows, args, kwargs, n_train) -> None:
        """Counts for a span, taken after it closed so its time is the layer's.

        Their queries run in the ``trace`` job group, not in the enclosing
        span's layer."""
        from pyspark.sql import functions as F

        from repro.core.schema import SOURCE_HUMAN, SOURCE_MODEL

        c = self.counts
        if name == "perception.build":
            c["perception.eval_obs"] += rows
            c["perception.train_labels"] += n_train
            c["perception.scenes"] += out.cfg.world.n_scenes
        elif name == "harness.prepare":
            self.prep = out
        elif name == "distributions.learn":
            dists = [*out.volume.values(), *out.velocity.values()]
            c["distributions.fits"] += len(dists)
            c["kde.points"] += sum(d.points.size for d in dists)
        elif name == "bundler.assign":
            r = out.agg(
                F.sum(((F.col("source") == SOURCE_MODEL) & (F.col("bundle_id") != F.col("obs_id"))).cast("long")).alias("m"),
                F.sum((F.col("source") == SOURCE_HUMAN).cast("long")).alias("h"),
                F.countDistinct("bundle_id").alias("b"),
            ).first()
            c["bundler.matches"] += r["m"]
            c["bundler.human_obs"] += r["h"]
            c["bundler.bundles"] += r["b"]
        elif name == "tracker.assign":
            c["tracker.obs"] += rows
            c["tracker.tracks"] += out.select("track_id").distinct().count()
        elif name == "scoring.logp":
            c["scoring.scored_obs"] += rows
            fd = kwargs.get("fd", args[1] if len(args) > 1 else None)
            self._logp_inputs.append((out, fd))
        elif name == "scoring.components":
            c["scoring.components"] += rows
        elif name == "scoring.rank":
            c["scoring.ranked"] += rows
        elif name == "baselines.consistency":
            c["baselines.flagged_tracks"] += rows

    def _wrap_kde_fit(self, kde_cls):
        orig = kde_cls.__dict__["fit"]
        fit = orig.__func__

        def traced_fit(cls, values, *args, **kwargs):
            with self.span("kde.fit", "kde"):
                out = fit(cls, values, *args, **kwargs)
            self.counts["distributions.values"] += np.asarray(values).size
            return out

        kde_cls.fit = classmethod(traced_fit)
        return lambda: setattr(kde_cls, "fit", orig)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target where any loaded ``repro`` module bound it."""
        import importlib

        from repro.core.kde import GaussianKDE

        undo = [self._wrap_kde_fit(GaussianKDE)]
        for mod_name, fn_name, name, layer in TARGETS:
            orig = getattr(importlib.import_module(mod_name), fn_name)
            new = self._wrap(orig, name, layer)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)
                        undo.append(functools.partial(setattr, mod, attr, orig))
        try:
            yield self
        finally:
            for u in reversed(undo):
                u()
            self._stack.clear()
            self._set_group()

    # -- after the run -------------------------------------------------

    def _funnel(self) -> None:
        from pyspark.sql import functions as F

        from repro.core.features import track_stats
        from repro.eval.harness import MIN_TRACK_OBS

        tracked = self.prep.tracked
        model_only = F.col("track_has_human") == 0
        r = track_stats(tracked).agg(
            F.count("*").alias("tracks"),
            F.sum(model_only.cast("long")).alias("model_only"),
            F.sum((model_only & (F.col("track_n_obs") >= MIN_TRACK_OBS)).cast("long")).alias("count_ok"),
        ).first()
        c = self.counts
        c["funnel.obs"] = tracked.count()
        c["funnel.bundles"] = tracked.select("bundle_id").distinct().count()
        c["funnel.tracks"] = r["tracks"]
        c["funnel.model_only_tracks"] = r["model_only"]
        c["funnel.count_ok_tracks"] = r["count_ok"]
        c["funnel.ranked"] = c["scoring.ranked"]

    def _kde(self) -> None:
        """kde.evals for every scoring pass; a single-core driver timing of
        ``relative_likelihood`` on the workload's own feature values."""
        evals = timed = secs = 0.0
        for df, fd in self._logp_inputs:
            pdf = df.select("cls", "volume", "velocity").toPandas()
            for feature, dists in (("volume", fd.volume), ("velocity", fd.velocity)):
                for cls, d in dists.items():
                    v = pdf.loc[pdf["cls"] == cls, feature].to_numpy(dtype=np.float64, na_value=np.nan)
                    v = v[np.isfinite(v)]
                    evals += v.size * d.points.size
                    sample = v[:KDE_TIMING_VALUES]
                    t = time.perf_counter()
                    d.relative_likelihood(sample)
                    secs += time.perf_counter() - t
                    timed += sample.size * d.points.size
        self.counts["kde.evals"] = evals
        self.counts["kde.eval_s"] = secs
        self.counts["kde.evals_per_s"] = timed / secs if secs else 0.0

    def _jobs(self) -> None:
        st = self.sc.statusTracker()
        seen: set[int] = set()
        for layer in (*JOB_LAYERS, "trace"):
            jobs = sorted(st.getJobIdsForGroup(f"{self.run_id}:{layer}"))
            tasks = failed = 0
            for jid in jobs:
                info = st.getJobInfo(jid)
                for sid in info.stageIds if info else ():
                    si = st.getStageInfo(sid)
                    if si is None or sid in seen:
                        continue
                    seen.add(sid)
                    tasks += si.numCompletedTasks
                    failed += si.numFailedTasks
            self.counts[f"{layer}.jobs"] = len(jobs)
            self.counts[f"{layer}.tasks"] = tasks
            self.counts["spark.failed_tasks"] += failed

    def _jvm_rss_mb(self) -> float:
        pid = self.spark._jvm.java.lang.ProcessHandle.current().pid()
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def finish(self) -> None:
        """Take the counts that need the finished run (outside all spans)."""
        self._funnel()
        self._kde()
        self._jobs()
        c = self.counts
        c["bundler.match_rate"] = c["bundler.matches"] / c["bundler.human_obs"] if c["bundler.human_obs"] else 0.0
        c["tracker.obs_per_track"] = c["tracker.obs"] / c["tracker.tracks"] if c["tracker.tracks"] else 0.0
        c["spark.jvm_peak_rss_mb"] = self._jvm_rss_mb()
        for _, _, name, _ in TARGETS:
            c[name + "_s"] = self.seconds(name)
        c["harness.table3_self_s"] = self.self_seconds("harness.table3")

    def metrics(self, pipeline_s: float, untraced_pipeline_s: float) -> dict:
        c = dict(self.counts)
        c["trace.pipeline_s"] = pipeline_s
        c["trace.overhead_s"] = pipeline_s - untraced_pipeline_s
        return {name: {"value": float(c.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
