"""Distributed index build: Ray Data pipeline over deterministic row ranges.

Execution model (Ray-Data-first, mirroring the reference's parallelism):
the reference gives each indexer thread a private ``segment_writer`` and
never shuffles postings across threads (utils/index-put.cpp:536-560,
core/index/index_writer.hpp:131-161) — segments are merged later and query
``prepare`` sums stats across segments.  We keep exactly that shape at
cluster scale:

1.  The driver plans **segment specs** from Parquet footers only (file,
    row-group range, row counts) — deterministic, metadata-cheap, and the
    unit of checkpoint/resume.  Doc ids derive from the spec, never from
    task scheduling.
2.  ``ray.data.from_items(specs).map_batches(BuildSegmentTask, ...)`` runs
    one task per segment: it streams ONLY its row groups (column-pruned to
    key+text), tokenizes with an analyzer built once per actor, inverts in
    vectorized numpy, and atomically writes the segment directory.
    There is **no all-to-all shuffle in the build** — the term-keyed
    shuffle exists only in the (cheap, pre-aggregated) global term-stats
    job (`term_stats_dataset`) and in segment merges (merge.py), both of
    which operate on per-segment aggregates, not raw postings.
3.  The driver commits an index manifest generation listing all segments.

Resume: a spec whose segment directory already holds a ``segment.json``
with the same lineage hash is skipped (counter ``docs_tokenized`` proves
no re-tokenization — FIXTURES.md F6).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow.parquet as pq

from iresearch_ray.analysis import get_analyzer
from iresearch_ray.analysis.tokenizers import flatten_batch, flatten_batch_arrow
from iresearch_ray.index import manifest as manifest_mod
from iresearch_ray.index.segment import (META_FILE, TERMS_FILE,
                                          SegmentWriter,
                                          analyzer_config_hash)
from iresearch_ray.util import StatelessBatchFn

DEFAULT_TARGET_DOCS = 50_000
TOKENIZE_BATCH_ROWS = 4096


def _list_parquet(paths) -> list[str]:
    if isinstance(paths, str):
        paths = [paths]
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(sorted(
                os.path.join(p, f) for f in os.listdir(p) if f.endswith(".parquet")))
        else:
            files.append(p)
    return sorted(files)


def plan_segments(paths, target_docs: int = DEFAULT_TARGET_DOCS,
                  segment_prefix: str = "seg-") -> list[dict]:
    """Deterministic segment specs from Parquet footers (metadata only).

    Row groups of one file are packed greedily up to ``target_docs`` rows;
    a segment never spans files (keeps lineage trivial and reads local).
    """
    specs: list[dict] = []
    for path in _list_parquet(paths):
        md = pq.ParquetFile(path).metadata
        rg_rows = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        cur: list[int] = []
        cur_rows = 0
        row_start = 0
        for i, n in enumerate(rg_rows):
            if cur and cur_rows + n > target_docs:
                specs.append({"file": path, "row_groups": cur, "row_start": row_start,
                              "num_rows": cur_rows})
                row_start += cur_rows
                cur, cur_rows = [], 0
            cur.append(i)
            cur_rows += n
        if cur:
            specs.append({"file": path, "row_groups": cur, "row_start": row_start,
                          "num_rows": cur_rows})
    for ord_, s in enumerate(specs):
        s["segment_ord"] = ord_
        s["segment_id"] = f"{segment_prefix}{ord_:05d}"
    return specs


def _lineage(spec: dict, analyzer_cfg: dict, text_column: str, key_column: str,
             store_columns: tuple = (), sort_by: str | None = None,
             sort_descending: bool = False,
             index_features: tuple = ("pos",),
             index_format: str = "1_0",
             norm_feature: str | None = None) -> dict:
    lin = {
        "file": os.path.basename(str(spec["file"])),
        # size pins the CONTENT, not just the name: a same-named file
        # regenerated with different text must invalidate resume (the
        # basename stays deliberately path-free so a wholesale-moved
        # dataset directory still resumes)
        "file_bytes": int(os.path.getsize(str(spec["file"]))),
        "row_groups": [int(g) for g in spec["row_groups"]],
        "row_start": int(spec["row_start"]),
        "num_rows": int(spec["num_rows"]),
        "text_column": text_column,
        "key_column": key_column,
        "analyzer_hash": analyzer_config_hash(analyzer_cfg),
    }
    if store_columns:
        lin["store_columns"] = list(store_columns)
    if sort_by:
        lin["sort_by"] = [sort_by, bool(sort_descending)]
    if tuple(index_features) != ("pos",):
        lin["index_features"] = sorted(index_features)
    if index_format != "1_0":
        lin["index_format"] = index_format
    if norm_feature:  # already resolved to 'name' or 'name@codehash'
        lin["norm_feature"] = norm_feature
    lin["hash"] = hashlib.sha256(
        json.dumps(lin, sort_keys=True).encode()).hexdigest()[:16]
    return lin


def _segment_done(index_dir: str, segment_id: str, lineage_hash: str) -> bool:
    meta_path = os.path.join(index_dir, segment_id, META_FILE)
    try:
        with open(meta_path) as f:
            meta = json.load(f)
        return meta.get("lineage", {}).get("hash") == lineage_hash
    except (OSError, ValueError):
        return False


def _stable_fn_hash(fn) -> str:
    """Deterministic short hash of a plain function's behavior: bytecode,
    primitive constants, captured closure-cell values, and the module
    globals it reads.  Referenced plain functions are fingerprinted
    RECURSIVELY (bytecode + consts + captures + their own globals —
    editing only a helper's constants must still invalidate resume);
    modules and C-implemented callables (numpy ufuncs, builtins imported
    by name) are stable dependencies hashed by qualified name.  Anything
    else is rejected — version the feature NAME explicitly instead of
    relying on magic."""
    if getattr(fn, "__code__", None) is None:
        raise ValueError(
            "custom norm feature must be a plain function; for other "
            "callables version the feature name explicitly (e.g. 'f_v2')")

    import builtins
    import types

    seen: set = set()

    def enc(v, what: str = "captures non-primitive state") -> bytes:
        if isinstance(v, (str, int, float, bool, bytes, type(None))):
            return repr(v).encode()
        if isinstance(v, tuple):
            return b"(" + b",".join(enc(x, what) for x in v) + b")"
        if hasattr(v, "co_code"):  # nested code object (inner lambda);
            # its globals are the OUTER fn's and hashed by its names_of
            return code_parts(v, None, None)
        if isinstance(v, types.ModuleType):  # stable dependency, by name
            return v.__name__.encode()
        if hasattr(v, "__code__"):  # helper function: FULL fingerprint
            return fn_parts(v)
        if (callable(v) and not isinstance(v, type)
                and getattr(v, "__name__", None)
                and (not hasattr(v, "__self__")
                     or isinstance(v.__self__, types.ModuleType))):
            # C-implemented callable (numpy ufunc, C function imported by
            # name): stable dependency, like a module.  Bound methods of
            # INSTANCES (re.Pattern.match, dict.get) are rejected above —
            # their behavior lives in __self__ state the name can't see.
            mod = getattr(v, "__module__", None) or type(v).__module__
            return f"{mod}.{getattr(v, '__qualname__', v.__name__)}".encode()
        raise ValueError(
            f"custom norm feature {what} "
            f"({type(v).__name__}); version the feature name explicitly")

    def names_of(c):
        yield from c.co_names
        for const in c.co_consts:
            if hasattr(const, "co_code"):
                yield from names_of(const)

    def code_parts(c, fn_globals, closure) -> bytes:
        parts = [c.co_code]
        parts.extend(enc(x) for x in c.co_consts)
        for cell in (closure or ()):
            parts.append(enc(cell.cell_contents))
        # module-level globals the function reads are behavior too:
        # editing one would otherwise change the feature without
        # invalidating lineage-based resume.  Builtins are excluded
        # (stable).
        if fn_globals is not None:
            for name in sorted(set(names_of(c))):
                if name in fn_globals and not hasattr(builtins, name):
                    parts.append(name.encode() + b"=" + enc(
                        fn_globals[name],
                        f"reads non-primitive global {name!r}"))
        return b"{" + b"|".join(parts) + b"}"

    def fn_parts(f) -> bytes:
        if id(f) in seen:  # mutually recursive helpers
            return b"<rec>"
        seen.add(id(f))
        return code_parts(f.__code__, getattr(f, "__globals__", {}),
                          f.__closure__)

    return hashlib.sha256(fn_parts(fn)).hexdigest()[:8]


class BuildSegmentTask:
    """Actor-pool callable: one input batch row = one segment spec.

    Analyzer construction happens once per actor (``__init__``), the
    reference's per-thread analyzer pooling (utils/index-put.cpp:536-543).
    """

    def __init__(self, index_dir: str, analyzer_name: str, analyzer_opts: dict,
                 text_column: str, key_column: str,
                 store_columns: tuple = (), sort_by: str | None = None,
                 sort_descending: bool = False,
                 index_features: tuple = ("pos",),
                 index_format: str = "1_0",
                 norm_feature: str | None = None):
        from iresearch_ray.index.formats import get_format

        get_format(index_format)  # fail fast on unknown format names
        _nf_name = norm_feature[0] if isinstance(norm_feature, tuple) \
            else norm_feature
        if _nf_name in ("doc_id", "key", "doc_len"):
            raise ValueError(
                f"norm feature name {_nf_name!r} collides with a "
                "reserved docmap column")
        if isinstance(norm_feature, tuple):
            # custom feature: (name, callable) — registries are
            # per-process, so ship the callable and register it in THIS
            # worker before any segment flush resolves it by name.  The
            # lineage identity includes a stable function hash (bytecode
            # + consts + CLOSURE cells): editing the callable, including
            # captured values, must invalidate resume like an analyzer
            # change; unstably-hashable callables are rejected up front
            from iresearch_ray.index.features import register_norm_feature

            name, fn = norm_feature
            register_norm_feature(name, fn)
            self._norm_lineage = f"{name}@{_stable_fn_hash(fn)}"
            norm_feature = name
        elif norm_feature is not None:
            from iresearch_ray.index.features import get_norm_feature

            get_norm_feature(norm_feature)  # fail fast on unknown names
        if not hasattr(self, "_norm_lineage"):
            self._norm_lineage = norm_feature
        self.norm_feature = norm_feature
        self.index_format = index_format
        self.index_dir = index_dir
        self.analyzer = get_analyzer(analyzer_name, **analyzer_opts)
        self.text_column = text_column
        self.key_column = key_column
        self.store_columns = tuple(store_columns)
        self.sort_by = sort_by
        self.sort_descending = bool(sort_descending)
        self.index_features = tuple(index_features)
        if "offs" in self.index_features and not hasattr(
                self.analyzer, "tokens_with_offsets"):
            raise ValueError(
                f"analyzer {analyzer_name!r} has no offset support; the "
                "'offs' index feature needs tokens_with_offsets")
        if "pay" in self.index_features and not hasattr(
                self.analyzer, "tokens_with_payloads"):
            raise ValueError(
                f"analyzer {analyzer_name!r} has no payload support; the "
                "'pay' index feature needs tokens_with_payloads")
        if {"offs", "pay"} <= set(self.index_features):
            raise ValueError(
                "offs+pay together are not supported yet — pick one")

    def __call__(self, batch: dict) -> dict:
        out = {"segment_id": [], "num_docs": [], "sum_doc_len": [], "num_terms": [],
               "tokens": [], "skipped": [], "wall_s": []}
        n = len(batch["segment_id"])
        for i in range(n):
            spec = {k: (v[i].tolist() if isinstance(v[i], np.ndarray) else v[i])
                    for k, v in batch.items()}
            meta = self.build_one(spec)
            out["segment_id"].append(meta["segment_id"])
            out["num_docs"].append(meta["num_docs"])
            out["sum_doc_len"].append(meta["sum_doc_len"])
            out["num_terms"].append(meta["num_terms"])
            out["tokens"].append(meta["counters"]["tokens_emitted"])
            out["skipped"].append(meta.get("_skipped", False))
            out["wall_s"].append(meta.get("_wall_s", 0.0))
        return {k: np.asarray(v) for k, v in out.items()}

    def build_one(self, spec: dict) -> dict:
        t0 = time.monotonic()
        lineage = _lineage(spec, self.analyzer.config(), self.text_column,
                           self.key_column, self.store_columns,
                           self.sort_by, self.sort_descending,
                           self.index_features, self.index_format,
                           self._norm_lineage)
        seg_dir = os.path.join(self.index_dir, spec["segment_id"])
        if _segment_done(self.index_dir, spec["segment_id"], lineage["hash"]):
            with open(os.path.join(seg_dir, META_FILE)) as f:
                meta = json.load(f)
            meta["_skipped"] = True
            meta["_wall_s"] = 0.0
            return meta
        pf = pq.ParquetFile(spec["file"])
        writer = SegmentWriter(spec["segment_id"], self.analyzer.config(),
                               lineage, fmt=self.index_format,
                               norm_feature=self.norm_feature)
        import pyarrow as pa

        read_cols = list(dict.fromkeys(
            [self.key_column, self.text_column, *self.store_columns,
             *((self.sort_by,) if self.sort_by else ())]))
        batches = pf.iter_batches(batch_size=TOKENIZE_BATCH_ROWS,
                                  row_groups=list(spec["row_groups"]),
                                  columns=read_cols)
        if self.sort_by:
            # "sorted index" (reference comparer, core/index/comparer.hpp:
            # 31-44; doc-id remap on flush segment_writer.cpp:268-313):
            # physically order THIS segment's docs by the sort field before
            # dense doc-id assignment.  Bounded: a segment is at most
            # target_docs rows (the reference likewise buffers the whole
            # segment before its sorted flush).
            import pyarrow.compute as pc

            whole = pa.Table.from_batches(list(batches))
            order = pc.sort_indices(whole, sort_keys=[
                (self.sort_by,
                 "descending" if self.sort_descending else "ascending")])
            batches = whole.take(order).to_batches(
                max_chunksize=TOKENIZE_BATCH_ROWS)
        # one coded path: the Arrow kernels where the analyzer selects
        # them and no per-occurrence attribute is indexed, else Python
        arrow = (getattr(self.analyzer, "arrow_tokenize", False)
                 and not {"offs", "pay"} & set(self.index_features))
        for rb in batches:
            keys = rb.column(self.key_column).cast(pa.string()).to_pylist()
            texts = rb.column(self.text_column)
            writer.add_batch_coded(
                flatten_batch_arrow(self.analyzer, texts) if arrow
                else flatten_batch(self.analyzer, texts, self.index_features),
                keys)
            if self.store_columns:
                writer.add_stored(pa.Table.from_batches([rb]).select(
                    list(self.store_columns)))
        meta = writer.flush(self.index_dir)  # lineage carries sort_by
        meta["_skipped"] = False
        meta["_wall_s"] = time.monotonic() - t0
        return meta


def build_index(paths, index_dir: str, analyzer: str = "unicode",
                analyzer_opts: dict | None = None, text_column: str = "text",
                key_column: str = "url", target_docs: int = DEFAULT_TARGET_DOCS,
                concurrency: int | None = None, commit: bool = True,
                cpus_per_task: int = 1,
                store_columns: tuple = (), segment_prefix: str = "seg-",
                sort_by: str | None = None,
                sort_descending: bool = False,
                index_features: tuple = ("pos",),
                index_format: str = "1_0",
                norm_feature: str | None = None) -> dict:
    """Build (or resume) an index over Parquet inputs; returns the manifest.

    ``cpus_per_task`` reserves that many CPUs per segment task — raise to 2
    on hosts whose vCPUs are oversubscribed (tokenize+invert is
    memory-bandwidth-bound; fewer concurrent tasks can be faster).

    Segment tasks run as stateless Ray tasks (``util.StatelessBatchFn``):
    our analyzers construct in microseconds, and a per-segment task reuses
    Ray's prestarted worker pool instead of paying a fresh process spawn +
    heavy imports per actor.

    Returns manifest dict; ``manifest['build_stats']`` carries per-segment
    counters including how many segments were skipped by resume.
    """
    import ray
    import ray.data

    from iresearch_ray.index.formats import get_format

    get_format(index_format)  # driver-side fail-fast on unknown formats
    analyzer_opts = analyzer_opts or {}
    specs = plan_segments(paths, target_docs, segment_prefix)
    if not specs:
        raise ValueError(f"no parquet inputs under {paths!r}")
    os.makedirs(index_dir, exist_ok=True)

    ds = ray.data.from_items(specs)
    if concurrency is None:
        concurrency = max(1, min(len(specs), int(ray.cluster_resources().get("CPU", 4))))
    ctor = dict(index_dir=index_dir, analyzer_name=analyzer,
                analyzer_opts=analyzer_opts,
                text_column=text_column, key_column=key_column,
                store_columns=tuple(store_columns), sort_by=sort_by,
                sort_descending=sort_descending,
                index_features=tuple(index_features),
                index_format=index_format, norm_feature=norm_feature)
    # pass the cap: a caller throttling memory-bound build tasks
    # (concurrency=2) must not be silently autoscaled
    stats_ds = ds.map_batches(StatelessBatchFn(BuildSegmentTask, ctor),
                              batch_size=1, num_cpus=cpus_per_task,
                              concurrency=min(concurrency, len(specs)),
                              batch_format="numpy")
    rows = stats_ds.take_all()  # one small row per segment
    rows.sort(key=lambda r: r["segment_id"])

    segments = []
    for r in rows:
        seg_dir = os.path.join(index_dir, str(r["segment_id"]))
        with open(os.path.join(seg_dir, META_FILE)) as f:
            meta = json.load(f)
        segments.append({"segment_id": meta["segment_id"], "num_docs": meta["num_docs"],
                         "sum_doc_len": meta["sum_doc_len"], "num_terms": meta["num_terms"]})
    build_stats = {
        "segments_built": int(sum(1 for r in rows if not r["skipped"])),
        "segments_skipped": int(sum(1 for r in rows if r["skipped"])),
        "docs": int(sum(r["num_docs"] for r in rows)),
        "tokens": int(sum(r["tokens"] for r in rows)),
    }
    if commit:
        skipped_ids = {str(r["segment_id"]) for r in rows if r["skipped"]}
        segments = _carry_forward(index_dir, segments, skipped_ids)
        return manifest_mod.commit(index_dir, segments, extra={"build_stats": build_stats})
    return {"segments": segments, "build_stats": build_stats}


def _carry_forward(index_dir: str, planned: list[dict],
                   skipped_ids: set) -> list[dict]:
    """Merge the planned segment list with the previous manifest generation
    so an incremental commit never loses prior state (the reference's
    index_writer commits are append-only: removals, consolidations, and
    replacements all survive later commits — index_writer.cpp flush_all
    stages 1-2):

    - a planned segment that resume-SKIPPED and exists in the previous
      manifest keeps its previous entry (doc masks survive);
    - planned segments fully covered by a previous consolidated segment
      are replaced by that merged entry, at the first constituent's
      position (doc order stable);
    - previous entries not derivable from the planned inputs (replacement
      segments, earlier appends) are carried over at the end.
    """
    prev_gen = manifest_mod.latest_generation(index_dir)
    if prev_gen is None:
        return planned
    prev = manifest_mod.load(index_dir, prev_gen)
    prev_by_id = {e["segment_id"]: e for e in prev["segments"]}
    # TRANSITIVE constituents of previous consolidated segments: the
    # merge/convert path records source_leaves (original leaf segment ids)
    # so coverage resolves across multiple consolidation generations even
    # after intermediate merged segments were purged; older segments
    # without source_leaves fall back to one-level merged_from
    source_to_merged: dict[str, str] = {}
    merged_cover: dict[str, list[str]] = {}
    for e in prev["segments"]:
        meta_path = os.path.join(index_dir, e["segment_id"], META_FILE)
        try:
            with open(meta_path) as f:
                lineage = json.load(f).get("lineage", {})
        except FileNotFoundError:
            continue
        srcs = lineage.get("source_leaves") or [
            s.split(":", 1)[0] for s in lineage.get("merged_from", [])]
        if srcs and srcs != [e["segment_id"]]:
            merged_cover[e["segment_id"]] = srcs
            for s in srcs:
                source_to_merged[s] = e["segment_id"]

    planned_ids = {e["segment_id"] for e in planned}
    out: list[dict] = []
    consumed: set[str] = set()
    emitted: set[str] = set()
    for e in planned:
        sid = e["segment_id"]
        if sid in consumed:
            continue
        if sid in prev_by_id and sid in skipped_ids:
            out.append(prev_by_id[sid])  # keeps docmask / num_deleted
            emitted.add(sid)
            continue
        rep = source_to_merged.get(sid)
        if (rep and sid in skipped_ids
                and all(c in planned_ids and c in skipped_ids
                        for c in merged_cover[rep])):
            out.append(prev_by_id[rep])
            emitted.add(rep)
            consumed.update(merged_cover[rep])
            continue
        out.append(e)
        emitted.add(sid)
    for e in prev["segments"]:  # replacements / earlier appends
        sid = e["segment_id"]
        if sid in emitted or sid in planned_ids or sid in merged_cover:
            continue
        if os.path.isdir(os.path.join(index_dir, sid)):
            out.append(e)
    return out


def term_stats_dataset(index_dir: str, generation: int | None = None):
    """Global term -> (df, ttf) as a Ray Dataset — THE term-keyed shuffle.

    Skew-safe by construction: the shuffle input is per-segment dictionary
    rows (term, df, ttf) — already one row per term per segment (a maximal
    combiner), so a head term contributes #segments rows, not #postings.
    This is the pre-aggregate-before-groupby pattern; no salting is needed
    because per-key volume is bounded by the segment count.
    """
    import ray.data
    from ray.data.aggregate import Sum

    man = manifest_mod.load(index_dir, generation)
    files = [os.path.join(index_dir, s["segment_id"], TERMS_FILE)
             for s in man["segments"]]
    ds = ray.data.read_parquet(files, columns=["term", "df", "ttf"])
    return ds.groupby("term").aggregate(Sum("df", alias_name="df"),
                                        Sum("ttf", alias_name="ttf"))
