"""Index inspection / conversion utilities.

The Ray-Data analogues of the reference's CLI tools:

- ``dump``    — print terms / postings / docmap / stored columns of an index
  (reference index-dump, utils/index-dump.cpp:55-104).
- ``convert`` — rewrite an index into a fresh layout (different target
  segment size / storage format), splicing committed segments through the
  merge path (reference index-convert's ``writer->import(reader)``,
  utils/index-convert.cpp:56-92): position bytes are copied, never
  decoded, and re-compressed with the destination format's codecs.

Run: ``python -m iresearch_ray.tools dump --index DIR [--term T] [--limit N]``
     ``python -m iresearch_ray.tools convert --src DIR --dst DIR --target-docs N``
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from iresearch_ray.index import manifest as manifest_mod
from iresearch_ray.index.merge import merge_segment_tables
from iresearch_ray.index.segment import SegmentReader, write_segment_dir


def dump_index(index_dir: str, generation: int | None = None,
               term: str | None = None, limit: int = 20, out=None) -> None:
    out = out or sys.stdout
    man = manifest_mod.load(index_dir, generation)
    print(f"# generation {man['generation']}  num_docs {man['num_docs']}  "
          f"sum_doc_len {man['sum_doc_len']}  segments {len(man['segments'])}",
          file=out)
    for entry in man["segments"]:
        r = SegmentReader(os.path.join(index_dir, entry["segment_id"]))
        print(f"\n== segment {r.segment_id}  docs {r.num_docs}  "
              f"terms {r.meta['num_terms']}  stored {r.stored_columns}"
              + (f"  masked {entry.get('num_deleted', 0)}"
                 if entry.get("docmask") else ""), file=out)
        if term is not None:
            i = r.lookup(term)
            if i < 0:
                print(f"  term {term!r}: ABSENT", file=out)
                continue
            docs, freqs, pos, offs = r.postings(i, positions=True)
            print(f"  term {term!r} df={r.df(i)}: "
                  + " ".join(f"{d}/{f}" for d, f in
                             zip(docs[:limit], freqs[:limit]))
                  + (" ..." if len(docs) > limit else ""), file=out)
            continue
        terms, df = r.terms, r.df_array()
        ttf = r.terms_table["ttf"].to_numpy()
        for row in range(min(limit, len(terms))):
            print(f"  {terms[row]!r}  df={df[row]} ttf={ttf[row]}", file=out)
        if len(terms) > limit:
            print(f"  ... {len(terms) - limit} more terms", file=out)


def convert_index(src_dir: str, dst_dir: str, target_docs: int,
                  generation: int | None = None,
                  index_format: str = "1_0") -> dict:
    """Rewrite a committed index into ``dst_dir`` with segments packed to
    ``target_docs`` docs each (masks purged).  A splice through
    ``merge_segment_tables``: no re-tokenization and no position decode,
    doc order preserved, so queries stay rank-identical.
    ``index_format`` selects the destination's registered storage format
    (index/formats.py) — conversion BETWEEN formats, like the reference's
    formats::get-driven index-convert."""
    from iresearch_ray import FORMAT_VERSION
    from iresearch_ray.index.delete import load_mask
    from iresearch_ray.index.formats import get_format

    get_format(index_format)  # fail fast on unknown names

    man = manifest_mod.load(src_dir, generation)
    os.makedirs(dst_dir, exist_ok=True)
    runs: list[list[dict]] = []
    cur: list[dict] = []
    cur_docs = 0
    for e in man["segments"]:
        live = e["num_docs"] - e.get("num_deleted", 0)
        if cur and cur_docs + live > target_docs:
            runs.append(cur)
            cur, cur_docs = [], 0
        cur.append(e)
        cur_docs += live
    if cur:
        runs.append(cur)

    out_entries = []
    for i, run in enumerate(runs):
        out_id = f"seg-c{i:05d}"
        readers = [SegmentReader(os.path.join(src_dir, e["segment_id"]))
                   for e in run]
        masks = [load_mask(src_dir, e) if e.get("docmask") else None
                 for e in run]
        terms_tbl, docmap, stats, columns_tbl = merge_segment_tables(readers,
                                                                     masks)
        meta = {
            "format_version": FORMAT_VERSION,
            "format": index_format,
            "segment_id": out_id,
            **stats,
            "analyzer": readers[0].meta.get("analyzer", {}),
            "analyzer_hash": readers[0].meta.get("analyzer_hash", ""),
            "lineage": {"converted_from": [e["segment_id"] for e in run],
                        "source_leaves": sorted({
                            leaf for r in readers for leaf in
                            (r.meta.get("lineage", {}).get("source_leaves")
                             or [r.segment_id])}),
                        "src": os.path.abspath(src_dir),
                        "src_generation": man["generation"]},
            "counters": {"docs_tokenized": 0, "tokens_emitted": 0,
                         "docs_converted": stats["num_docs"]},
        }
        write_segment_dir(dst_dir, out_id, terms_tbl, docmap, meta,
                          columns_tbl)
        out_entries.append({"segment_id": out_id,
                            "num_docs": stats["num_docs"],
                            "sum_doc_len": stats["sum_doc_len"],
                            "num_terms": stats["num_terms"]})
    return manifest_mod.commit(dst_dir, out_entries, generation=1,
                               extra={"converted_from": os.path.abspath(src_dir)})


def purge_unreferenced(index_dir: str, keep_generations: int = 1) -> dict:
    """Remove segment directories and docmask files unreferenced by the
    newest ``keep_generations`` manifests (reference directory_cleaner,
    core/store/directory_cleaner.cpp; remove_all_unreferenced in
    utils/index-put.cpp:529).  Readers of retained generations are
    unaffected; older generation manifests are deleted too."""
    import glob as _glob
    import re as _re
    import shutil

    gens = sorted(
        int(m.group(1))
        for p in _glob.glob(os.path.join(index_dir, "index_*.json"))
        if (m := _re.search(r"index_(\d+)\.json$", p)))
    if not gens:
        raise FileNotFoundError(f"no manifests in {index_dir}")
    keep = set(gens[-max(1, keep_generations):])
    referenced_segments: set[str] = set()
    referenced_masks: set[tuple[str, str]] = set()
    for g in keep:
        man = manifest_mod.load(index_dir, g)
        for e in man["segments"]:
            referenced_segments.add(e["segment_id"])
            if e.get("docmask"):
                referenced_masks.add((e["segment_id"], e["docmask"]))
    removed = {"segments": [], "manifests": [], "masks": []}
    for name in sorted(os.listdir(index_dir)):
        path = os.path.join(index_dir, name)
        if os.path.isdir(path) and name not in referenced_segments:
            shutil.rmtree(path)
            removed["segments"].append(name)
        elif (m := _re.match(r"index_(\d+)\.json$", name)) \
                and int(m.group(1)) not in keep:
            os.unlink(path)
            removed["manifests"].append(name)
    # docmask files inside retained segments but from dropped generations
    for sid in referenced_segments:
        seg_dir = os.path.join(index_dir, sid)
        for name in sorted(os.listdir(seg_dir)):
            if name.startswith("docmask-") and (sid, name) not in referenced_masks:
                os.unlink(os.path.join(seg_dir, name))
                removed["masks"].append(f"{sid}/{name}")
    return removed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="iresearch_ray.tools")
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("--index", required=True)
    d.add_argument("--generation", type=int, default=None)
    d.add_argument("--term", default=None)
    d.add_argument("--limit", type=int, default=20)
    c = sub.add_parser("convert")
    c.add_argument("--src", required=True)
    c.add_argument("--dst", required=True)
    c.add_argument("--target-docs", type=int, required=True)
    c.add_argument("--generation", type=int, default=None)
    c.add_argument("--format", default="1_0",
                   help="destination storage format (see index/formats.py)")
    p = sub.add_parser("purge")
    p.add_argument("--index", required=True)
    p.add_argument("--keep-generations", type=int, default=1)
    a = ap.parse_args(argv)
    if a.cmd == "dump":
        dump_index(a.index, a.generation, a.term, a.limit)
    elif a.cmd == "purge":
        removed = purge_unreferenced(a.index, a.keep_generations)
        print(json.dumps(removed))
    else:
        man = convert_index(a.src, a.dst, a.target_docs, a.generation,
                            index_format=a.format)
        print(json.dumps({"generation": man["generation"],
                          "segments": len(man["segments"]),
                          "num_docs": man["num_docs"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
