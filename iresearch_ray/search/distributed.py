"""Distributed query serving: long-lived segment-group actors.

Scale path for the query side (the reference serves queries from one
process over mmap'd segments — utils/index-search.cpp:544-546; on a Ray
cluster segments live across nodes, so readers become a pool of
**segment-group actors**, each holding its groups' decoded dictionaries /
docmaps in memory across queries):

1. ``collect``: every actor reports local df for the filter's terms
   (reference term_collector, summed over segments — bm25.cpp:250-256).
2. the driver sums dfs into the global ``df_map``.
3. ``execute``: actors run the filter with the global stats, each returning
   its top-k candidates (bounded: k rows per group cross the wire).
4. the driver merges candidate sets into the final top-k.

Dictionary-expansion filters (prefix/range/wildcard/fuzzy) get EXACT
global stats: the ``expand_dfs`` collect round has every actor report its
groups' matched term -> local df, the driver sums them into the global
``df_map``, and execution scores each matched term with its global df —
the same collect/sum the reference's term_collector performs.
"""

from __future__ import annotations

import os

import pandas as pd


def _make_group_actor():
    import ray

    from iresearch_ray.search.distributed_core import GroupSearchCore

    @ray.remote(num_cpus=1, max_restarts=2, max_task_retries=2)
    class SegmentGroupSearcher(GroupSearchCore):
        # restart-safe: all state derives from the small plain-value
        # constructor args (index_dir, entries, stats) over immutable
        # segment artifacts — a crashed actor rebuilds its readers and
        # replays the failed call (reference: stateless readers over
        # mmap'd segments survive process restarts the same way)
        """Holds SegmentReaders (and doc masks) for one group of segments
        (state cached across queries — the reference's long-lived reader
        + caches).  Collect/execute logic lives in GroupSearchCore."""

        def __init__(self, index_dir: str, segment_entries, field_stats):
            from iresearch_ray.index.delete import load_mask
            from iresearch_ray.index.segment import SegmentReader
            from iresearch_ray.search.executor import SegmentView
            from iresearch_ray.search.scorers import FieldStats

            self.segments = [
                SegmentView(SegmentReader(os.path.join(index_dir, e["segment_id"])),
                            e["base"],
                            load_mask(index_dir, e) if e.get("docmask") else None)
                for e in segment_entries
            ]
            self.stats = FieldStats(*field_stats)

    return SegmentGroupSearcher


class DistributedSearcher:
    """Driver-side handle over a pool of segment-group actors."""

    def __init__(self, index_dir: str, num_groups: int | None = None,
                 generation: int | None = None, scorer=None):
        from iresearch_ray.index import manifest as manifest_mod
        from iresearch_ray.search.distributed_core import plan_groups
        from iresearch_ray.search.scorers import BM25

        self.scorer = scorer or BM25()
        man = manifest_mod.load(index_dir, generation)
        entries = []
        base = 0
        for s in man["segments"]:
            entries.append({"segment_id": s["segment_id"], "base": base,
                            "docmask": s.get("docmask")})
            base += s["num_docs"]
        field_stats = (man["num_docs"], man["sum_doc_len"])
        Actor = _make_group_actor()
        self.actors = [Actor.remote(index_dir, g, field_stats)
                       for g in plan_groups(entries, num_groups)]

    def search(self, flt, k: int = 10, mode: str = "all") -> pd.DataFrame:
        """``mode='top'``: two-wave block-max WAND — the first (pilot) group
        establishes a k-th-score threshold, broadcast to the remaining
        groups which prune blocks below it (the reference's shared
        score_threshold, spread across actors; results stay identical to
        mode='all' because the bound is conservative)."""
        from iresearch_ray.search.distributed_core import (
            collect_df_map,
            distributed_topk,
        )
        from iresearch_ray.search.executor import check_topk_args

        check_topk_args(k, mode)  # before the df collect round
        df_map = collect_df_map(self.actors, flt)
        return distributed_topk(self.actors, flt, self.scorer, df_map, k, mode)

    def close(self):
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []
