"""Seeded inputs of the benchmark: the pages corpus and the query streams.

The corpus has the FIXTURES.md F1 shape (``url``, ``warc_ts``, ``html``,
``text``, ``lang``): Zipf s=1.1 over a 10k-word vocabulary plus planted
terms and phrases whose hit counts are known exactly.  It is written here,
not by the engine's own ``sources.pages``, so a change to the engine cannot
change the inputs it is measured on.

The vocabulary is fixed (its own constant seed); ``--seed`` drives the
documents and the query streams.  Vocabulary words use the letters a-y
only and never start with ``abc`` or equal a planted word, so every
planted count is exact: no Zipf word is a fuzzy neighbour of ``fuzzy``
(which needs three z's), a member of the ``abc`` prefix family, or one of
the planted terms.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

VOCAB_SIZE = 10_000
VOCAB_SEED = 20240101
ZIPF_S = 1.1
DOC_LEN_MIN, DOC_LEN_MAX = 5, 200  # Zipf tokens per doc, [min, max)
EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
HEAD_WORDS = 60  # query_head_phrase pairs words of the top 60 ranks

# planted kind -> (share of docs, token sequence appended to the doc);
# a family cycles its members by doc index
PLANTED = {
    "hterm": (0.10, [["hterm"]]),
    "mterm": (0.01, [["mterm"]]),
    "lterm": (0.001, [["lterm"]]),
    "phrase_ref_name": (0.02, [["ref", "name"]]),
    "phrase_books_id": (0.005, [["books", "id"]]),
    "prefix_family": (0.02, [["abcd"], ["abcde"], ["abcdef"]]),
    "fuzzy_family": (0.01, [["fuzzy"], ["fuzy"], ["fuzzzy"], ["buzzy"],
                            ["fzzy"]]),
}
_RESERVED = {w for _, fam in PLANTED.values() for seq in fam for w in seq}


def vocabulary() -> list[str]:
    """10k distinct words in Zipf rank order (rank 0 is the most frequent)."""
    rng = np.random.default_rng(VOCAB_SEED)
    letters = np.array(list("abcdefghijklmnopqrstuvwxy"))
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCAB_SIZE:
        for n in rng.integers(3, 11, size=VOCAB_SIZE):
            w = "".join(letters[rng.integers(0, len(letters), size=n)])
            if w in seen or w in _RESERVED or w.startswith("abc"):
                continue
            seen.add(w)
            words.append(w)
            if len(words) == VOCAB_SIZE:
                break
    return words


def zipf_probs() -> np.ndarray:
    p = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_S
    return p / p.sum()


def make_corpus(n_docs: int, seed: int) -> tuple[pa.Table, dict]:
    """The pages table and its ground truth: docs, text bytes, tokens and
    the docs hit by each planted kind."""
    rng = np.random.default_rng(seed)
    vocab = vocabulary()
    extra_words = sorted(_RESERVED)
    words = pa.array(vocab + extra_words, type=pa.string())
    word_id = {w: VOCAB_SIZE + i for i, w in enumerate(extra_words)}

    lens = rng.integers(DOC_LEN_MIN, DOC_LEN_MAX, size=n_docs)
    zipf = rng.choice(VOCAB_SIZE, size=int(lens.sum()), p=zipf_probs())
    hits = {k: rng.random(n_docs) < share for k, (share, _) in PLANTED.items()}

    # a doc is its Zipf run, then each planted sequence it is hit by, in
    # PLANTED order; a family member is chosen by doc index
    docs = np.arange(n_docs)
    planted = []  # (hit docs, their member's token ids)
    extra = np.zeros(n_docs, dtype=np.int64)
    for kind, (_, fam) in PLANTED.items():
        member = docs % len(fam)
        for m, seq in enumerate(fam):
            sel = np.flatnonzero(hits[kind] & (member == m))
            planted.append((sel, [word_id[w] for w in seq]))
            extra[sel] += len(seq)
    doc_tokens = lens + extra
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(doc_tokens, out=offsets[1:])
    toks = np.empty(int(offsets[-1]), dtype=np.int64)
    zipf_start = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(lens[:-1], out=zipf_start[1:])
    toks[np.arange(len(zipf)) + np.repeat(offsets[:-1] - zipf_start, lens)] = zipf
    cursor = offsets[:-1] + lens
    for sel, ids in planted:
        for j, t in enumerate(ids):
            toks[cursor[sel] + j] = t
        cursor[sel] += len(ids)
    flat = words.take(pa.array(toks))
    text = pc.binary_join(pa.ListArray.from_arrays(pa.array(offsets), flat), " ")
    if n_docs >= 4:  # duplicated-doc pair at fixed slots (F1)
        same = docs.copy()
        same[-1] = n_docs - 3
        text = text.take(pa.array(same))
        doc_tokens = doc_tokens[same]
        hits = {k: h[same] for k, h in hits.items()}

    html = pc.binary_join_element_wise("<html><body>", text, "</body></html>",
                                       "").cast(pa.binary())
    langs = np.where(rng.random(n_docs) < 0.95, "en",
                     np.array(["de", "fr", "sv", "nl"])[docs % 4])
    table = pa.table({
        "url": pa.array([f"https://site{i % 101}.example/{i:08d}"
                         for i in range(n_docs)], type=pa.string()),
        "warc_ts": pa.array(EPOCH_US + docs.astype(np.int64) * 1_000_000,
                            type=pa.timestamp("us")),
        "html": html,
        "text": text.cast(pa.large_string()),
        "lang": pa.array(langs, type=pa.string()),
    })
    truth = {
        "docs": n_docs,
        "text_bytes": int(pc.sum(pc.binary_length(text)).as_py()),
        "tokens": int(doc_tokens.sum()),
        "planted": {k: int(h.sum()) for k, h in hits.items()},
    }
    return table, truth


def write_corpus(path: str, table: pa.Table, docs_per_row_group: int) -> None:
    """One row group per first-generation segment, so segment planning from
    the Parquet footer yields exactly ``docs / docs_per_row_group`` specs."""
    pq.write_table(table, path, row_group_size=docs_per_row_group,
                   compression="zstd")


# ------------------------------------------------------------ queries ----
def reference_queries(vocab: list[str]) -> dict[str, tuple[str, tuple]]:
    """The 23 reference categories of ``bench.py`` as plain data:
    category -> (kind, args); ``*Wand`` categories run with mode='top'.
    Head/med/low words are vocabulary ranks 0-5, 40-43 and 800-801."""
    high, med, low = vocab[:6], vocab[40:44], vocab[800:802]
    t = lambda *ws: tuple(("term", w) for w in ws)  # noqa: E731
    return {
        "HighTerm": ("term", ("hterm",)),
        "MedTerm": ("term", ("mterm",)),
        "LowTerm": ("term", ("lterm",)),
        "HighTermWand": ("term", ("hterm",)),
        "AndHighHigh": ("and", t("hterm", high[0])),
        "AndHighMed": ("and", t("hterm", "mterm")),
        "AndHighLow": ("and", t("hterm", "lterm")),
        "OrHighHigh": ("or", t("hterm", high[0])),
        "OrHighMed": ("or", t("hterm", "mterm")),
        "OrHighLow": ("or", t("hterm", "lterm")),
        "MinMatch2of3": ("minmatch2", t("hterm", "mterm", "lterm")),
        "HighPhrase": ("phrase", (high[0], high[1])),
        "MedPhrase": ("phrase", ("ref", "name")),
        "LowPhrase": ("phrase", ("books", "id")),
        "Prefix3": ("prefix", ("abc",)),
        "Wildcard": ("wildcard", ("abc%",)),
        "Fuzzy1": ("fuzzy", ("fuzzy", 1)),
        "Fuzzy2": ("fuzzy", ("fuzzy", 2)),
        "Or4High": ("or", t(*high[:4])),
        "Or4HighWand": ("or", t(*high[:4])),
        "OrHighMedWand": ("or", t("hterm", "mterm")),
        "Or6High4Med2Low": ("or", t(*high[:6], *med[:4], *low[:2])),
        "MinMatch2High2Med": ("minmatch2", t(*high[:2], *med[:2])),
    }


def reference_stream(seed: int, n: int) -> list[str]:
    """Category names in a seeded order; every block of 23 is a permutation
    of all categories, so each run has the same mix."""
    rng = np.random.default_rng([seed, 1])
    names = list(reference_queries(vocabulary()))
    out: list[str] = []
    while len(out) < n:
        out.extend(names[i] for i in rng.permutation(len(names)))
    return out[:n]


def head_phrases() -> list[tuple[str, str]]:
    """The 60 distinct 2-word phrases of query_head_phrase: each of the
    HEAD_WORDS most frequent words followed by the next one in rank order
    (the last by the first), so every head word is the first word of one
    phrase and the second of another.  The set is fixed, like the
    reference categories; the seed orders the stream and makes the corpus.
    Few distinct phrases asked often keep the slowest 1% of a run made of
    many samples of the same phrases, so p99 is steady across seeds."""
    head = vocabulary()[:HEAD_WORDS]
    return [(head[i], head[(i + 1) % HEAD_WORDS]) for i in range(HEAD_WORDS)]


def head_phrase_stream(seed: int, n: int) -> list[tuple[str, str]]:
    """``n`` phrases: seeded permutations of ``head_phrases()`` back to
    back, so every phrase is asked equally often."""
    rng = np.random.default_rng([seed, 2])
    pool = head_phrases()
    out: list[tuple[str, str]] = []
    while len(out) < n:
        out.extend(pool[i] for i in rng.permutation(len(pool)))
    return out[:n]
