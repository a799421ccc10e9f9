"""Model-inference analyzer stages: classification + nearest-neighbors.

The analogues of the reference's fastText-backed analyzers
(core/analysis/classification_stream.cpp:225-238 emits top-k predicted
labels as tokens; nearest_neighbors_stream.cpp:204-217 emits each input
token's k model neighbors).  fastText isn't available in this container,
so the MODEL is stubbed behind an import-try with a deterministic fake —
the Ray plumbing (model loaded once per actor in ``__init__``, vectorized
batch inference in ``__call__``, actor-pool sizing) is real: swap
``_fake_*`` for `fasttext.load_model(path)` calls and nothing else changes.
"""

from __future__ import annotations

import pyarrow as pa

from iresearch_ray.analysis.hashing import FAKE_MODEL_FAMILIES, hash_family
from iresearch_ray.util import pool_size


class ClassifyBatch:
    """Actor-pool stage: text -> top-k predicted label tokens.

    Real deployment: ``__init__`` loads the fastText supervised model ONCE
    per actor (the reference pools one model per indexing thread); the fake
    predicts a deterministic label from a token-histogram hash.
    """

    def __init__(self, text_column: str = "text",
                 labels: tuple = ("news", "sports", "tech", "other"),
                 top_k: int = 1, model_path: str | None = None,
                 hash: str = "fnv"):
        # fake-path hash family: 'fnv' (default) or 'md5' — md5 is
        # reproducible in SQL as md5_number_lower, enabling an exact
        # oracle for the fake classifier (the dedup-family pattern)
        self.hasher = hash_family(hash, FAKE_MODEL_FAMILIES).strings64
        self.text_column = text_column
        self.labels = list(labels)
        self.top_k = int(top_k)
        self.model = None
        if model_path is not None:
            try:
                import fasttext  # noqa: F401 — not shipped in this container

                self.model = fasttext.load_model(model_path)
            except ImportError as e:
                raise NotImplementedError(
                    "fasttext unavailable; omit model_path to use the "
                    "deterministic fake") from e

    def _predict(self, text: str) -> list[str]:
        labels, _ = self.model.predict(text, k=self.top_k)
        return [l.removeprefix("__label__") for l in labels]

    def _fake_labels(self, h: int) -> list[str]:
        n = len(self.labels)
        return [self.labels[(h + i) % n] for i in range(min(self.top_k, n))]

    def __call__(self, b: pa.Table) -> pa.Table:
        texts = [t or "" for t in b[self.text_column].to_pylist()]
        if self.model is not None:
            preds = [self._predict(t) for t in texts]
        else:
            # hash the whole batch in one kernel call
            preds = [self._fake_labels(int(h)) for h in self.hasher(texts)]
        return b.append_column(
            "labels", pa.array(preds, type=pa.list_(pa.string())))


class NearestNeighborsBatch:
    """Actor-pool stage: each input token -> its k model neighbors as
    tokens (reference nearest_neighbors_stream).  Fake: deterministic
    pseudo-neighbors derived from the token hash."""

    def __init__(self, text_column: str = "text", k: int = 2,
                 model_path: str | None = None, analyzer: str = "ascii",
                 hash: str = "fnv"):
        from iresearch_ray.analysis import get_analyzer

        # fake-path hash family, same contract as ClassifyBatch
        self.hasher = hash_family(hash, FAKE_MODEL_FAMILIES).strings64
        self.text_column = text_column
        self.k = int(k)
        self.analyzer = get_analyzer(analyzer)
        self.model = None
        if model_path is not None:
            try:
                import fasttext  # noqa: F401

                self.model = fasttext.load_model(model_path)
            except ImportError as e:
                raise NotImplementedError(
                    "fasttext unavailable; omit model_path to use the "
                    "deterministic fake") from e

    def _fake_neighbors(self, token: str, h: int) -> list[str]:
        return [f"{token}~{(h >> (8 * i)) % 97:02d}" for i in range(self.k)]

    def __call__(self, b: pa.Table) -> pa.Table:
        tok_lists = [self.analyzer.tokens(t or "")
                     for t in b[self.text_column].to_pylist()]
        if self.model is not None:
            nb = {t: [w for _, w in
                      self.model.get_nearest_neighbors(t, k=self.k)]
                  for ts in tok_lists for t in ts}
        else:
            # hash each UNIQUE token once per batch
            uniq = sorted({t for ts in tok_lists for t in ts})
            nb = {t: self._fake_neighbors(t, int(h))
                  for t, h in zip(uniq, self.hasher(uniq))}
        out = [[n for t in ts for n in nb[t]] for ts in tok_lists]
        return b.append_column(
            "neighbor_tokens", pa.array(out, type=pa.list_(pa.string())))


def classify(ds, text_column: str = "text", labels=("news", "sports", "tech",
                                                    "other"),
             top_k: int = 1, concurrency: int | None = None,
             batch_size: int = 256, hash: str = "fnv"):
    hash_family(hash, FAKE_MODEL_FAMILIES)  # at call time, not in an actor
    return ds.map_batches(
        ClassifyBatch,
        fn_constructor_kwargs=dict(text_column=text_column,
                                   labels=tuple(labels), top_k=top_k,
                                   hash=hash),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=pool_size(concurrency))


def nearest_neighbors(ds, text_column: str = "text", k: int = 2,
                      concurrency: int | None = None, batch_size: int = 256,
                      hash: str = "fnv"):
    hash_family(hash, FAKE_MODEL_FAMILIES)  # at call time, not in an actor
    return ds.map_batches(
        NearestNeighborsBatch,
        fn_constructor_kwargs=dict(text_column=text_column, k=k, hash=hash),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=pool_size(concurrency))
