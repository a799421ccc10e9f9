"""Ray-free benchmark of the iresearch_ray engine on one core.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (rationale, sizes and the layer map are in BENCHMARK.json):

- ``ingest``: build generation 1 (16 x 3,200-doc segments) and merge it
  into generation 2 (2 x 25,600), pass after pass for ``--seconds``; then
  the reference query loop against generation 2.
- ``query_reference``: the 23 reference categories at k=10 against
  generation 1, where the postings LRU holds the whole hot set.
- ``query_head_phrase``: 2-word phrases over the 60 most frequent words
  against generation 2, whose working set exceeds the LRU.

Queries run as one closed loop for ``--seconds`` and at least 1,100
queries: one client, the next query sent when the previous one returns.
The loop is cut into REOPENS slices; before each, a fresh reader opens
the index and answers one query (the cold sample), so cold and warm
samples spread over the whole run.  Each answer is checked after its
latency is taken; ``query_qps`` is queries per second of query time.  Set-up of the query
workloads (corpus, build, merge) runs in a child process, so the serving
process's peak RSS is its own.

With ``--trace 1`` set-up runs in-process, the timed phase runs once
untraced and once with the hooks of ``spans.py`` installed, and the last
line carries the per-layer metrics instead of the end-to-end ones.

A correctness gate runs outside the timed sections; any mismatch makes
``correct`` false and the exit code 1.  The last stdout line is the JSON
result; the line before it holds diagnostics (per-category latency,
mismatches, absent hooks).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = ("ingest", "query_reference", "query_head_phrase")
MIN_QUERIES = 1_100  # at least 10 samples beyond p99
STREAM_LEN = 60_000
REOPENS = 9
K = 10

END_TO_END = [
    ("setup_s", "s"), ("build_docs_per_s", "1/s"), ("merge_docs_per_s", "1/s"),
    ("index_bytes_per_text_byte", "ratio"), ("cold_query_ms", "ms"),
    ("query_p50_ms", "ms"), ("query_p99_ms", "ms"), ("query_qps", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _pin_pools() -> None:
    """Arrow and BLAS thread pools sized to the cores this process may use
    (set before numpy loads; the set-up child inherits the environment)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    import pyarrow as pa

    pa.set_cpu_count(NPROC)
    pa.set_io_thread_count(NPROC)


def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


class Run:
    """One benchmark run: its inputs, timings, checks and trace."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        import corpus
        import engine
        import spans

        self.corpus, self.engine, self.spans = corpus, engine, spans
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tracer = spans.Tracer() if trace else None
        self.work = os.path.join(HERE, ".work",
                                 f"{workload}-{seed}-{os.getpid()}")
        self.index = os.path.join(self.work, "index")
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []
        self.e2e: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.per: dict[str, dict] = {}
        self.diagnostics: dict = {}
        self.absent: list[str] = []

    # ------------------------------------------------------------ checks --
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(what)

    def check_manifests(self, info: dict, truth: dict) -> None:
        for m in info["manifests"]:
            self.check(m["num_docs"] == truth["docs"],
                       f"gen {m['generation']} num_docs {m['num_docs']}")
            self.check(m["sum_doc_len"] == truth["tokens"],
                       f"gen {m['generation']} sum_doc_len {m['sum_doc_len']}")

    def check_planted(self, searcher, truth: dict) -> None:
        e = self.engine
        probes = {
            "hterm": ("term", ("hterm",)), "mterm": ("term", ("mterm",)),
            "lterm": ("term", ("lterm",)),
            "phrase_ref_name": ("phrase", ("ref", "name")),
            "phrase_books_id": ("phrase", ("books", "id")),
            "prefix_family": ("prefix", ("abc",)),
            "fuzzy_family": ("fuzzy", ("fuzzy", 1)),
        }
        for kind, spec in probes.items():
            got = e.count_matches(searcher, e.make_filter(*spec))
            self.check(got == truth["planted"][kind],
                       f"{kind}: {got} hits, generator planted "
                       f"{truth['planted'][kind]}")

    def gate(self, searcher, timed_gen: int, distinct: list,
             truth: dict) -> None:
        """Planted counts are exact; generations 1 and 2 give the same
        top-k in every mode; WAND (mode top) gives the same top-k as mode
        all.  (The loop checks each timed answer against the warm-up.)"""
        e = self.engine
        self.check_planted(searcher, truth)
        other = e.open_searcher(self.index, 3 - timed_gen)
        modes = ("all",) if self.workload == "query_head_phrase" \
            else ("all", "top")
        mine = self.answers(searcher, distinct, modes)
        theirs = self.answers(other, distinct, modes)
        for q, ans in mine.items():
            self.check(ans == theirs[q], f"{q}: gen 1 and gen 2 differ")
            if q[2] == "top":
                self.check(ans == mine[(q[0], q[1], "all")],
                           f"{q}: mode top differs from mode all")

    # -------------------------------------------------------------- trace --
    def phase(self, name: str | None) -> None:
        if self.tracer:
            self.tracer.phase = name

    def set_ctx(self, ctx) -> None:
        if self.tracer:
            self.tracer.ctx = ctx

    def traced(self, fn, *args):
        """``fn(*args)`` with the trace hooks installed."""
        hooks = self.spans.install(self.tracer)
        self.absent = hooks.absent
        try:
            return fn(*args)
        finally:
            hooks.remove()

    # ------------------------------------------------------------- phases --
    def ingest_pass(self, truth: dict) -> dict:
        info = self.engine.ingest(truth["path"], self.index, truth,
                                  on_segment=self.set_ctx)
        self.check_manifests(info, truth)
        return info

    def setup(self) -> dict:
        """Corpus, generation 1 and generation 2 for a query workload."""
        if self.tracer:
            truth = self.engine.prepare_corpus(self.work, self.seed)
            self.phase("ingest")
            info = self.traced(self.ingest_pass, truth)
            info["truth"] = truth
            return info
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "engine.py"), self.work,
             str(self.seed)], check=True, stdout=subprocess.PIPE, text=True,
            timeout=170)
        info = json.loads(out.stdout.strip().splitlines()[-1])
        self.check_manifests(info, info["truth"])
        return info

    def reopen(self, gen: int, spec: tuple, i: int) -> float:
        """Fresh reader plus one query (ms)."""
        e = self.engine
        self.set_ctx(f"open{i}")
        t0 = time.perf_counter()
        e.open_searcher(self.index, gen).search(e.make_filter(*spec), k=K)
        return (time.perf_counter() - t0) * 1e3

    def loop(self, searcher, stream: list, start: int, expect: dict,
             n: int | None = None, seconds: float = 0.0, min_n: int = 0):
        """Closed loop over ``stream[start:]``: exactly ``n`` queries, or
        until ``seconds`` have passed and ``min_n`` queries are done.
        Each answer is checked against ``expect`` after its latency is
        taken; returns the latencies (s)."""
        e = self.engine
        lat = []
        t_start = time.perf_counter()
        for i in range(start, len(stream)):
            done = len(lat)
            if n is not None and done == n:
                break
            if n is None and done >= min_n and \
                    time.perf_counter() - t_start >= seconds:
                break
            _, kind, args, mode = stream[i]
            self.set_ctx(f"q{i}")
            t0 = time.perf_counter()
            frame = searcher.search(e.make_filter(kind, args), k=K, mode=mode)
            lat.append(time.perf_counter() - t0)
            self.check(e.answer(frame) == expect[(kind, args, mode)],
                       f"{kind}{args} {mode}: timed answer differs")
        return lat

    def stream(self) -> list:
        """(category, kind, args, mode) per query, in the seeded order."""
        c = self.corpus
        if self.workload == "query_head_phrase":
            return [("HeadPhrase", "phrase", pair, "all")
                    for pair in c.head_phrase_stream(self.seed, STREAM_LEN)]
        specs = c.reference_queries(c.vocabulary())
        return [(name, *specs[name], "top" if name.endswith("Wand") else "all")
                for name in c.reference_stream(self.seed, STREAM_LEN)]

    def answers(self, searcher, queries: list, modes=None) -> dict:
        e = self.engine
        out = {}
        for kind, args, mode in queries:
            for m in modes or (mode,):
                out[(kind, args, m)] = e.answer(searcher.search(
                    e.make_filter(kind, args), k=K, mode=m))
        return out

    # ----------------------------------------------------------- workload --
    def execute(self) -> None:
        e = self.engine
        t0 = time.perf_counter()
        if self.workload == "ingest":
            truth = e.prepare_corpus(self.work, self.seed)
            self.e2e["setup_s"] = time.perf_counter() - t0
            passes = []
            t_loop = time.perf_counter()
            while not passes or time.perf_counter() - t_loop < self.seconds:
                passes.append(self.ingest_pass(truth))
            if self.tracer:
                self.phase("ingest")
                traced = self.traced(self.ingest_pass, truth)
                self.gauges["trace.overhead_ratio"] = (
                    (traced["build_s"] + traced["merge_s"])
                    / statistics.median(p["build_s"] + p["merge_s"]
                                        for p in passes))
            info, timed_gen = passes[-1], 2
        else:
            info = self.setup()
            passes, truth = [info], info["truth"]
            self.e2e["setup_s"] = time.perf_counter() - t0
            timed_gen = 1 if self.workload == "query_reference" else 2
        self.e2e["build_docs_per_s"] = statistics.median(
            r for p in passes for r in p["build_rates"])
        self.e2e["merge_docs_per_s"] = statistics.median(
            r for p in passes for r in p["merge_rates"])
        self.e2e["index_bytes_per_text_byte"] = info["index_bytes_per_text_byte"]
        self.record_bytes(info, truth)
        self.diagnostics["corpus"] = {k: truth[k] for k in (
            "docs", "text_bytes", "tokens", "planted")}

        stream = self.stream()
        v = self.corpus.vocabulary()
        first = ("phrase", (v[0], v[1])) \
            if self.workload == "query_head_phrase" else ("term", ("hterm",))
        searcher = e.open_searcher(self.index, timed_gen)
        distinct = list(dict.fromkeys((kind, args, mode)
                                      for _, kind, args, mode in stream))
        warm = self.answers(searcher, distinct)  # fills caches; expected
        cold, slices = self.query_phase(searcher, stream, warm, timed_gen,
                                        first)
        lat = [t for sl in slices for t in sl]
        self.e2e["cold_query_ms"] = statistics.median(cold)
        self.e2e["query_p50_ms"] = statistics.median(lat) * 1e3
        self.e2e["query_p99_ms"] = _p99(lat) * 1e3
        self.e2e["query_qps"] = len(lat) / sum(lat)
        self.diagnostics["queries"] = len(lat)
        self.diagnostics["categories"] = self.per_category(stream, lat)

        if self.tracer:
            _, traced = self.traced(self.query_phase, searcher, stream, warm,
                                    timed_gen, first, [len(sl) for sl in slices])
            self.trace_gauges(searcher, lat, [t for sl in traced for t in sl])
        self.phase(None)
        self.gate(searcher, timed_gen, distinct, truth)

    def query_phase(self, searcher, stream, warm, gen, first, counts=None):
        """REOPENS x (one cold reopen, one slice of the closed loop); slices
        run for seconds/REOPENS and MIN_QUERIES/REOPENS queries, or replay
        the given ``counts``.  Returns cold ms and per-slice latencies."""
        cold, slices, done = [], [], 0
        for r in range(REOPENS):
            self.phase("reopen")
            cold.append(self.reopen(gen, first, r))
            self.phase("loop")
            if counts:
                sl = self.loop(searcher, stream, done, warm, n=counts[r])
            else:
                sl = self.loop(searcher, stream, done, warm,
                               seconds=self.seconds / REOPENS,
                               min_n=-(-MIN_QUERIES // REOPENS))
            slices.append(sl)
            done += len(sl)
        return cold, slices

    def trace_gauges(self, searcher, lat: list, traced: list) -> None:
        self.per["reopen"] = {"open": REOPENS}
        self.per["loop"] = {"query": len(traced)}
        if self.workload != "ingest":
            self.gauges["trace.overhead_ratio"] = sum(traced) / sum(lat)
        c = self.tracer.counts
        hits, misses = c.get("loop:lru_hits", 0), c.get("loop:lru_misses", 0)
        self.gauges["index.segment.lru_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        resident = self.spans.resident_elements(searcher)
        if resident is None:
            c["loop:lru_internals_absent"] = 1
        else:
            self.gauges["index.segment.lru_resident_elements"] = resident

    def record_bytes(self, info: dict, truth: dict) -> None:
        n_seg = info["manifests"][0]["segments"]
        self.gauges["index.merge.bytes_rewritten_per_text_byte"] = (
            sum(info["gen2_bytes"].values()) / truth["text_bytes"])
        self.gauges["index.segment.terms_bytes"] = (
            info["gen1_bytes"].get("terms.parquet", 0) / n_seg)
        self.gauges["index.segment.docmap_bytes"] = (
            info["gen1_bytes"].get("docmap.parquet", 0) / n_seg)

    def per_category(self, stream: list, lat: list) -> dict:
        by: dict[str, list] = {}
        for (name, *_), t in zip(stream, lat):
            by.setdefault(name, []).append(t * 1e3)
        return {name: {"n": len(v), "p50_ms": statistics.median(v),
                       "p99_ms": _p99(v) if len(v) > 1 else v[0]}
                for name, v in by.items()}

    # ------------------------------------------------------------- report --
    def result(self) -> dict:
        self.check("ray" not in sys.modules, "ray was imported")
        if self.tracer:
            names = [s[0] for s in self.tracer.spans]
            self.per["ingest"] = {
                "segment": names.count("index.build.build_one"),
                "merge": names.count("index.merge.merge"),
                "commit": names.count("index.manifest.commit"),
            }
            metrics = self.spans.layer_metrics(self.tracer, self.absent,
                                               self.per, self.gauges)
        else:
            self.e2e["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": self.e2e[k], "unit": u}
                       for k, u in END_TO_END}
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _pin_pools()
    sys.path.insert(0, ROOT)  # the engine under test, from this checkout
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
        result = run.result()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if run.tracer:
        out_dir = os.path.join(HERE, ".out")
        os.makedirs(out_dir, exist_ok=True)
        run.tracer.write(
            os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"),
            {"absent": run.absent, "diagnostics": run.diagnostics})
    print(json.dumps({"diagnostics": run.diagnostics,
                      "mismatches": run.mismatches, "absent": run.absent}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
