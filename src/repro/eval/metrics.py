"""Precision/recall metrics used in §8.

The paper audits the top-k ranked candidates per scene and reports
precision among them ("In some cases, fewer than 10 potential errors
were flagged; we use the maximum number in these cases" — so the
denominator is ``min(k, n_flagged)``), averaged over the scenes where
errors were discovered.

Rankings are small (tens of tracks per scene), so metric arithmetic is
pandas on the driver.
"""
from __future__ import annotations

import pandas as pd


def precision_at_k(flags: pd.Series | list, k: int) -> float | None:
    """Precision among the first ``min(k, len)`` entries of an ordered
    0/1 error-flag sequence; ``None`` when nothing was flagged."""
    flags = list(flags)[: max(k, 0)]
    if not flags:
        return None
    return float(sum(bool(f) for f in flags)) / len(flags)


def mean_scene_precision_at_k(
    ranked: pd.DataFrame, k: int, scenes: list | None = None
) -> float | None:
    """Average per-scene precision@k (the Table 3 statistic).

    Args:
        ranked: one row per flagged candidate with its ``scene_id``, a
            per-scene ``rank`` and a boolean ``is_error`` flag.
        scenes: the scenes to average over (the paper averages over
            scenes where errors were discovered); defaults to all scenes
            present in ``ranked``.
    """
    per_scene = []
    groups = dict(list(ranked.groupby("scene_id")))
    for s in scenes if scenes is not None else sorted(groups):
        grp = groups.get(s)
        if grp is None or grp.empty:
            continue
        p = precision_at_k(grp.sort_values("rank")["is_error"], k)
        if p is not None:
            per_scene.append(p)
    return float(pd.Series(per_scene).mean()) if per_scene else None


def recall(found: set, truth: set) -> float | None:
    """|found ∩ truth| / |truth|; ``None`` for empty truth."""
    if not truth:
        return None
    return len(set(found) & set(truth)) / len(truth)
