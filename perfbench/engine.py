"""The benchmark's calls into the engine: build, merge, open and search.

Everything here runs in one process on the engine's public per-segment
entry points (``plan_segments`` -> ``BuildSegmentTask.build_one`` ->
``manifest.commit``; ``plan_consolidation`` -> ``merge_run`` -> commit) —
the same work ``build_index``/``consolidate`` hand to Ray tasks, without
Ray.  Run as a script it is the query workloads' set-up: it writes the
corpus, builds both generations and prints their measurements as JSON,
so the build's memory never counts in the query process's peak RSS.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

if __name__ == "__main__":  # run as the set-up child of run.py
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from iresearch_ray.index import manifest as manifest_mod  # noqa: E402
from iresearch_ray.index import build as build_mod  # noqa: E402
from iresearch_ray.index import merge as merge_mod  # noqa: E402
from iresearch_ray.search import (  # noqa: E402
    AndFilter, BM25, FuzzyFilter, IndexReader, IndexSearcher, OrFilter,
    PhraseFilter, PrefixFilter, TermFilter, WildcardFilter,
)

import corpus  # noqa: E402

# Sizes (see BENCHMARK.json): 16 first-generation segments of 3,200 docs,
# merged in runs of 8 into 2 segments of 25,600 docs.  At 25,600 docs a
# segment's postings-LRU budget is max(2M, 80 * 25,600) = 2,048,000
# elements, below the ~4.9M the 60 head words' positional postings and
# occurrence keys take per segment.
N_DOCS = 51_200
SEG_DOCS = 3_200
MERGE_RUN = 8
ANALYZER = "ascii"


def prepare_corpus(workdir: str, seed: int) -> dict:
    """Write the seeded corpus and read it once so the page cache is warm
    before anything is timed; returns the generator's ground truth."""
    os.makedirs(workdir, exist_ok=True)
    table, truth = corpus.make_corpus(N_DOCS, seed)
    path = os.path.join(workdir, "pages.parquet")
    corpus.write_corpus(path, table, SEG_DOCS)
    with open(path, "rb") as f:
        while f.read(1 << 24):
            pass
    truth["path"] = path
    return truth


def _entry(meta: dict) -> dict:
    return {k: meta[k] for k in ("segment_id", "num_docs", "sum_doc_len",
                                 "num_terms")}


def build_generation(pages: str, index_dir: str, rates: list,
                     on_segment=None) -> dict:
    """Generation 1: one ``build_one`` per planned segment, then commit.
    Appends each segment's docs per second to ``rates``."""
    task = build_mod.BuildSegmentTask(index_dir, ANALYZER, {}, "text", "url")
    segments = []
    for spec in build_mod.plan_segments(pages, target_docs=SEG_DOCS):
        if on_segment:
            on_segment(spec["segment_id"])
        t0 = time.perf_counter()
        segments.append(_entry(task.build_one(spec)))
        rates.append(segments[-1]["num_docs"] / (time.perf_counter() - t0))
    return manifest_mod.commit(index_dir, segments)


def merge_generation(index_dir: str, rates: list, on_segment=None) -> dict:
    """Generation 2: merge adjacent runs of MERGE_RUN segments, then commit.
    Appends each run's docs per second to ``rates``."""
    man = manifest_mod.load(index_dir)
    gen = man["generation"] + 1
    runs = merge_mod.plan_consolidation(man["segments"], SEG_DOCS * MERGE_RUN,
                                        max_run=MERGE_RUN)
    merged = {}
    for i, run in enumerate(runs):
        out_id = f"seg-m{gen}-{i:04d}"
        if on_segment:
            on_segment(out_id)
        t0 = time.perf_counter()
        merged[run[0]] = _entry(merge_mod.merge_run(index_dir, run, out_id))
        rates.append(merged[run[0]]["num_docs"] / (time.perf_counter() - t0))
    members = {sid for run in runs for sid in run}
    segments = [merged.get(s["segment_id"], s) for s in man["segments"]
                if s["segment_id"] in merged or s["segment_id"] not in members]
    return manifest_mod.commit(index_dir, segments, generation=gen)


def segment_bytes(index_dir: str, man: dict) -> dict[str, int]:
    """Artifact bytes of a generation's live segments, by file name."""
    out: dict[str, int] = {}
    for s in man["segments"]:
        seg_dir = os.path.join(index_dir, s["segment_id"])
        for name in os.listdir(seg_dir):
            out[name] = out.get(name, 0) + os.path.getsize(
                os.path.join(seg_dir, name))
    return out


def ingest(pages: str, index_dir: str, truth: dict, on_segment=None) -> dict:
    """Build generation 1 and merge it into generation 2: per-segment build
    rates, per-run merge rates, wall times and artifact bytes of one pass."""
    shutil.rmtree(index_dir, ignore_errors=True)
    build_rates: list[float] = []
    merge_rates: list[float] = []
    t0 = time.perf_counter()
    gen1 = build_generation(pages, index_dir, build_rates, on_segment)
    t1 = time.perf_counter()
    gen2 = merge_generation(index_dir, merge_rates, on_segment)
    t2 = time.perf_counter()
    b1, b2 = segment_bytes(index_dir, gen1), segment_bytes(index_dir, gen2)
    return {
        "build_s": t1 - t0, "merge_s": t2 - t1,
        "build_rates": build_rates, "merge_rates": merge_rates,
        "gen1_bytes": b1, "gen2_bytes": b2,
        "index_bytes_per_text_byte": sum(b2.values()) / truth["text_bytes"],
        "manifests": [{k: m[k] for k in ("generation", "num_docs",
                                         "sum_doc_len")} | {
                           "segments": len(m["segments"])}
                      for m in (gen1, gen2)],
    }


# -------------------------------------------------------------- search ----
def make_filter(kind: str, args: tuple):
    if kind == "term":
        return TermFilter(args[0])
    if kind == "phrase":
        return PhraseFilter(list(args))
    if kind == "prefix":
        return PrefixFilter(args[0], scored_terms_limit=16)
    if kind == "wildcard":
        return WildcardFilter(args[0], scored_terms_limit=16)
    if kind == "fuzzy":
        return FuzzyFilter(args[0], max_distance=args[1], scored_terms_limit=16)
    kids = [TermFilter(w) for _, w in args]
    if kind == "and":
        return AndFilter(kids)
    if kind == "or":
        return OrFilter(kids)
    if kind == "minmatch2":
        return OrFilter(kids, min_match=2)
    raise ValueError(f"unknown query kind {kind!r}")


def open_searcher(index_dir: str, generation: int) -> IndexSearcher:
    return IndexSearcher(IndexReader(index_dir, generation), BM25())


def answer(frame) -> tuple[tuple, tuple]:
    """A top-k result as comparable data: (keys, float scores)."""
    return tuple(frame["key"].tolist()), tuple(frame["score"].tolist())


def count_matches(searcher: IndexSearcher, flt) -> int:
    return sum(len(docs) for _, docs, _ in searcher.execute(flt))


def main() -> None:
    workdir, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    truth = prepare_corpus(workdir, seed)
    out = ingest(truth["path"], os.path.join(workdir, "index"), truth)
    out["setup_s"] = time.perf_counter() - t0
    out["truth"] = truth
    if "ray" in sys.modules:
        raise SystemExit("ray was imported during set-up")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
