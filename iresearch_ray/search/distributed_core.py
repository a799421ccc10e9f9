"""Shared guts of the distributed searchers (single-field and multi-field).

Both serving paths are the same machine — df collect with per-actor
max-merge, pilot-wave WAND threshold sharing, bounded k-rows-per-group
merges (reference term_collector + score_threshold feedback,
core/search/bm25.cpp:250-256, utils/index-search.cpp:701-740).  Each
actor runs the local searcher's own top-k loop (``executor.collect_topk``)
over its group of segments, so routing (field-bound sub-segments) and
the mask guard on WAND are decided in one place for every path.
`GroupSearchCore` holds the per-actor logic; the driver helpers hold the
collect/merge halves.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from iresearch_ray.search.executor import (
    SnapshotMemo,
    _kth_floor,
    _topk_rows,
    collect_topk,
    hits_frame,
)


class GroupSearchCore:
    """Actor-side logic for one group of segments.  Subclasses set
    ``self.segments`` / ``self.stats`` in ``__init__``."""

    @property
    def memo(self) -> SnapshotMemo:
        """This group's per-term memo, made on first use; it lives as long
        as the actor, like its segment readers."""
        if "_memo" not in vars(self):
            self._memo = SnapshotMemo(self.segments)
        return self._memo

    # ---- collect ---------------------------------------------------
    def expand_dfs(self, flt) -> dict:
        """Dictionary-expansion collect: matched term -> local df."""
        return flt.expand_dfs(self)

    def term_dfs(self, terms: list[str]) -> dict:
        out: dict[str, int] = {}
        for t in terms:
            total = self.memo.rows(t)[1]
            if total:
                out[t] = total
        return out

    # ---- execute ---------------------------------------------------
    def execute_topk(self, flt, scorer, df_map: dict, k: int,
                     mode: str = "all", threshold: float = float("-inf")):
        """This group's top-k by (-score, doc) as (global docs, float64
        scores, keys): at most k rows per GROUP cross the wire.
        ``mode='top'`` prunes with block-max WAND from the driver-supplied
        ``threshold``, tightening it across this group's segments."""
        prep = flt.prepare(self, scorer, df_map=df_map)
        return collect_topk(prep, self.segments, k, mode, threshold)


# -------------------------------------------------- driver-side halves ----
def plan_groups(entries: list[dict], num_groups: int | None) -> list[list[dict]]:
    """Round-robin segment entries into actor groups (CPU-count default)."""
    import ray

    if num_groups is None:
        num_groups = min(len(entries), max(1, int(
            ray.cluster_resources().get("CPU", 4)) - 2))
    groups = [entries[i::num_groups] for i in range(num_groups)]
    return [g for g in groups if g]


def collect_df_map(actors, flt) -> dict:
    """Global df collect: flat terms + expansion nodes per actor; within
    one actor the same key from two nodes carries the same group-local df
    (merge with max), across actors dfs sum — anything else double-counts
    shared parts (round-2 bug, fixed with this exact shape)."""
    import ray

    from iresearch_ray.search.filters import df_collect_nodes

    df_map: dict[str, int] = {}
    terms = sorted(flt.terms_needed())
    nodes = df_collect_nodes(flt)
    per_actor = []
    for a in actors:
        fs = []
        if terms:
            fs.append(a.term_dfs.remote(terms))
        for node in nodes:
            fs.append(a.expand_dfs.remote(node))
        per_actor.append(fs)
    for fs in per_actor:
        mine: dict[str, int] = {}
        for part in ray.get(fs):
            for t, d in part.items():
                mine[t] = max(mine.get(t, 0), d)
        for t, d in mine.items():
            df_map[t] = df_map.get(t, 0) + d
    return df_map


def distributed_topk(actors, flt, scorer, df_map: dict, k: int,
                     mode: str) -> pd.DataFrame:
    """Two-wave execute + bounded merge.  ``mode='top'``: the pilot
    group's k-th score (one ulp down, so cross-group ties broken by doc
    id at the merge are never pruned) prunes the remaining groups."""
    import ray

    if mode == "top" and len(actors) > 1:
        pilot = ray.get(actors[0].execute_topk.remote(
            flt, scorer, df_map, k, "top"))
        thr = pilot_threshold(pilot[1], k, scorer.dtype)
        rest = ray.get([a.execute_topk.remote(flt, scorer, df_map,
                                              k, "top", thr)
                        for a in actors[1:]])
        results = [pilot, *rest]
    else:
        results = ray.get([a.execute_topk.remote(flt, scorer, df_map,
                                                 k, mode)
                           for a in actors])
    return merge_group_hits(results, k)


def pilot_threshold(scores: np.ndarray, k: int, dtype) -> float:
    """The pilot group's k-th score one ulp down IN THE SCORER'S DTYPE.
    Scores cross the wire as float64; a float64 ulp below a float32 score
    rounds back to that score when the WAND kernels compare it with
    float32 block bounds, and then prunes the blocks that tie it."""
    return _kth_floor(np.asarray(scores).astype(dtype), k, float("-inf"))


def merge_group_hits(results, k: int) -> pd.DataFrame:
    """The top k of every group's (docs, scores, keys), tie-exact."""
    # an empty index has no actors -> the empty frame, like the local one
    docs = np.concatenate([np.empty(0, np.int64)] + [r[0] for r in results])
    scores = np.concatenate([np.empty(0)] + [r[1] for r in results])
    keys = [k_ for r in results for k_ in r[2]]
    sel = _topk_rows(docs, scores, k)
    return hits_frame(docs[sel], scores[sel], [keys[i] for i in sel])
