"""Analyzers: text -> token stream, batch-vectorized.

Brand-new implementations of the behaviors of the reference's analyzer
family (/root/reference/core/analysis/*_token_stream.cpp):

- ``RegexTokenizer``    ~ `segmentation_token_stream` (word split + case fold,
  the analyzer the reference's own index benchmark uses —
  scripts/index-benchmark.sh:18); deterministic, no ICU dependency.
- ``DelimiterAnalyzer`` ~ `delimited_token_stream`.
- ``NgramAnalyzer``     ~ `ngram_token_stream` (char n-grams [min,max],
  optional preserve_original, start/end markers).
- ``StopwordsAnalyzer`` ~ `token_stopwords_stream`.
- ``NormalizeAnalyzer`` ~ `text_token_normalizing_stream` (case/accent fold,
  single token out).
- ``PipelineAnalyzer``  ~ `pipeline_token_stream` (composition).

An analyzer instance is immutable; heavy setup happens in ``__init__`` so a
Ray actor-pool stage constructs it once per worker (the reference pools
analyzers per indexing thread — utils/index-put.cpp:536-543).

The batch API is ``tokenize_batch(texts) -> (tokens, counts)`` where
``tokens`` is one flat Python list over the whole batch and ``counts`` the
per-doc token counts; positions are the per-doc token ordinals (derived
vectorially by the caller).  Token emission order defines positions.
``flatten_batch`` (any analyzer, any index feature) and
``flatten_batch_arrow`` (Arrow kernels, ascii ``pos`` only) turn a batch
into the one coded form ``SegmentWriter.add_batch_coded`` takes.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Analyzer",
    "RegexTokenizer",
    "DelimiterAnalyzer",
    "NgramAnalyzer",
    "StopwordsAnalyzer",
    "NormalizeAnalyzer",
    "PipelineAnalyzer",
    "register_analyzer",
    "get_analyzer",
    "flatten_batch",
]


class Analyzer:
    """Base: per-doc ``tokens(text)`` plus a batched entry point."""

    name = "identity"

    def tokens(self, text: str) -> list[str]:
        raise NotImplementedError

    def tokenize_batch(self, texts: Iterable[str]) -> tuple[list[str], np.ndarray]:
        flat: list[str] = []
        counts = np.empty(len(texts) if hasattr(texts, "__len__") else 0, dtype=np.int64)
        if len(counts) == 0:
            texts = list(texts)
            counts = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            # null text = empty document (matches the Arrow fast path,
            # where pc kernels propagate nulls to zero-token rows)
            toks = self.tokens(t) if t is not None else []
            counts[i] = len(toks)
            flat.extend(toks)
        return flat, counts

    def config(self) -> dict:
        """Stable config dict — hashed into segment lineage."""
        return {"name": self.name}


# ICU word-break fallback classes: Han ideographs emit as unigrams (the
# public Lucene StandardTokenizer convention for unsegmented scripts),
# hiragana / katakana runs as single tokens (script change = boundary),
# every other word run via \w+ excluding CJK and underscore.  Real
# locale-aware dictionary segmentation needs PyICU (not in this
# container) — the import-gated path below uses it when available.
_HAN = "\\u4e00-\\u9fff\\u3400-\\u4dbf\\uf900-\\ufaff"
_HIRA = "\\u3040-\\u309f"
_KATA = "\\u30a0-\\u30ff\\u31f0-\\u31ff"
_ICU_FALLBACK_PATTERN = (rf"[{_HAN}]|[{_HIRA}]+|[{_KATA}]+"
                         rf"|[^\W_{_HAN}{_HIRA}{_KATA}]+")


def _icu_break_iterator(locale: str):
    """A PyICU word BreakIterator for ``locale``, or None when PyICU is
    not importable (reference: text_token_stream.cpp:1098-1135 uses UBRK
    word boundaries; this is the same public ICU API via PyICU)."""
    try:
        import icu
    except ImportError:
        return None
    return icu.BreakIterator.createWordInstance(icu.Locale(locale))


class RegexTokenizer(Analyzer):
    """Word tokenizer: case-fold then emit regex word matches.

    ``kind='unicode'`` uses ``\\w+`` (close to the reference `segmentation`
    analyzer's alpha-word mode); ``kind='ascii'`` uses ``[a-z0-9]+`` over the
    lowercased text — exactly reproducible in ANSI SQL
    (``string_split_regex(lower(text), '[^a-z0-9]+')``), which the DuckDB
    correctness oracle relies on.  ``kind='icu'`` is the locale-aware
    tier: PyICU UBRK word boundaries when importable, else a documented
    CJK-aware regex fallback (Han unigrams, kana runs, \\w words).
    """

    def __init__(self, kind: str = "unicode", lowercase: bool = True,
                 locale: str = "en"):
        if kind == "unicode":
            self._pat = re.compile(r"\w+", re.UNICODE)
            self.arrow_tokenize = False
        elif kind == "ascii":
            self._pat = re.compile(r"[a-z0-9]+")
            # selects the zero-Python-object Arrow tokenize path
            # (flatten_batch_arrow): splitting lowered text at every byte
            # outside [a-z0-9] equals findall('[a-z0-9]+') on it
            self.arrow_tokenize = lowercase
        elif kind == "icu":
            self._pat = re.compile(_ICU_FALLBACK_PATTERN)
            self.arrow_tokenize = False
            self._brk = _icu_break_iterator(locale)
        else:
            raise ValueError(f"unknown RegexTokenizer kind: {kind}")
        self.kind = kind
        self.locale = locale
        self.lowercase = lowercase
        self.name = f"regex-{kind}"

    def _icu_words(self, text: str):
        """(tokens, starts, ends) over the ORIGINAL text via ICU word
        breaks; rule status 0 (UBRK_WORD_NONE) spans are whitespace /
        punctuation and are dropped."""
        brk = self._brk
        brk.setText(text)
        toks, starts, ends = [], [], []
        start = brk.first()
        for end in brk:
            if brk.getRuleStatus() != 0:
                t = text[start:end]
                toks.append(t.lower() if self.lowercase else t)
                starts.append(start)
                ends.append(end)
            start = end
        return (toks, np.asarray(starts, dtype=np.int64),
                np.asarray(ends, dtype=np.int64))

    def _lower(self, text: str) -> str:
        if self.kind == "ascii":
            # Arrow utf8_lower (the flatten_batch_arrow path) and DuckDB
            # lower() fold U+0130 to 'i'; Python to 'i' + U+0307, which
            # splits the word — fold it their way
            text = text.replace("\u0130", "I")
        return text.lower()

    def tokens(self, text: str) -> list[str]:
        if self.kind == "icu" and self._brk is not None:
            return self._icu_words(text)[0]
        if self.lowercase:
            text = self._lower(text)
        return self._pat.findall(text)

    def tokens_with_offsets(self, text: str):
        """(tokens, starts, ends) — char offsets into the ORIGINAL text
        (reference OFFS index feature; ours recomputes offsets lazily for
        top-k docs instead of storing them per posting — see
        search/highlight.py for the scale rationale)."""
        import numpy as np

        if self.kind == "icu" and self._brk is not None:
            # MUST segment the same way tokens() does, or OFFS-built
            # indexes desync from query-time analysis and highlights
            # point at the wrong spans
            return self._icu_words(text)
        low = self._lower(text) if self.lowercase else text
        if len(low) != len(text):
            # rare: case-folding changed the length (e.g. 'İ' -> 'i̇');
            # build a low-index -> original-index map so offsets stay
            # anchored to the ORIGINAL text
            back = []
            for i, ch in enumerate(text):
                back.extend([i] * len(self._lower(ch)))
            toks, starts, ends = [], [], []
            for m in self._pat.finditer(low):
                toks.append(m.group())
                starts.append(back[m.start()])
                ends.append(back[m.end() - 1] + 1)
            return (toks, np.asarray(starts, dtype=np.int64),
                    np.asarray(ends, dtype=np.int64))
        toks, starts, ends = [], [], []
        for m in self._pat.finditer(low):
            toks.append(m.group())
            starts.append(m.start())
            ends.append(m.end())
        return toks, np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64)

    def config(self) -> dict:
        cfg = {"name": self.name, "kind": self.kind,
               "lowercase": self.lowercase}
        if self.kind == "icu":
            # locale changes segmentation -> part of segment lineage; so
            # does whether PyICU was actually present at build time
            cfg["locale"] = self.locale
            cfg["icu"] = self._brk is not None
        return cfg


class DelimiterAnalyzer(Analyzer):
    """Split on a literal delimiter (reference delimited_token_stream)."""

    def __init__(self, delimiter: str = ","):
        self.delimiter = delimiter
        self.name = "delimiter"

    def tokens(self, text: str) -> list[str]:
        if not text:
            return []
        return text.split(self.delimiter) if self.delimiter else [text]

    def config(self) -> dict:
        return {"name": self.name, "delimiter": self.delimiter}


class NgramAnalyzer(Analyzer):
    """Char n-grams in [min_gram, max_gram]; optional original passthrough.

    Mirrors reference ngram_token_stream semantics: for each start offset,
    emit grams of each length (only full-length grams unless at string end
    behavior simplified: grams fully inside the string).
    """

    def __init__(self, min_gram: int = 2, max_gram: int = 3,
                 preserve_original: bool = False, lowercase: bool = True):
        if min_gram < 1 or max_gram < min_gram:
            raise ValueError("bad ngram bounds")
        self.min_gram, self.max_gram = min_gram, max_gram
        self.preserve_original = preserve_original
        self.lowercase = lowercase
        self.name = "ngram"

    def tokens(self, text: str) -> list[str]:
        if self.lowercase:
            text = text.lower()
        out: list[str] = []
        n = len(text)
        for i in range(n):
            for g in range(self.min_gram, self.max_gram + 1):
                if i + g <= n:
                    out.append(text[i:i + g])
        if self.preserve_original and (n < self.min_gram or n > self.max_gram):
            out.append(text)
        return out

    def config(self) -> dict:
        return {"name": self.name, "min_gram": self.min_gram,
                "max_gram": self.max_gram,
                "preserve_original": self.preserve_original,
                "lowercase": self.lowercase}


class StopwordsAnalyzer(Analyzer):
    """Wrap another analyzer, dropping stopword tokens."""

    def __init__(self, inner: Analyzer, stopwords: Iterable[str]):
        self.inner = inner
        self.stopwords = frozenset(stopwords)
        self.name = "stopwords"

    def tokens(self, text: str) -> list[str]:
        sw = self.stopwords
        return [t for t in self.inner.tokens(text) if t not in sw]

    def config(self) -> dict:
        return {"name": self.name, "inner": self.inner.config(),
                "stopwords": sorted(self.stopwords)}


class NormalizeAnalyzer(Analyzer):
    """Whole-input normalization -> exactly one token (reference `norm`)."""

    def __init__(self, lowercase: bool = True, strip_accents: bool = True):
        self.lowercase = lowercase
        self.strip_accents = strip_accents
        self.name = "norm"

    def tokens(self, text: str) -> list[str]:
        if self.lowercase:
            text = text.lower()
        if self.strip_accents:
            text = "".join(c for c in unicodedata.normalize("NFD", text)
                           if not unicodedata.combining(c))
        return [text]

    def config(self) -> dict:
        return {"name": self.name, "lowercase": self.lowercase,
                "strip_accents": self.strip_accents}


class PipelineAnalyzer(Analyzer):
    """Chain: tokenizer then per-token analyzers (reference pipeline stream)."""

    def __init__(self, stages: list[Analyzer]):
        if not stages:
            raise ValueError("empty pipeline")
        self.stages = stages
        self.name = "pipeline"

    def tokens(self, text: str) -> list[str]:
        toks = self.stages[0].tokens(text)
        for stage in self.stages[1:]:
            nxt: list[str] = []
            for t in toks:
                nxt.extend(stage.tokens(t))
            toks = nxt
        return toks

    def config(self) -> dict:
        return {"name": self.name, "stages": [s.config() for s in self.stages]}


_REGISTRY: dict[str, Callable[..., Analyzer]] = {}


def register_analyzer(name: str, factory: Callable[..., Analyzer]) -> None:
    _REGISTRY[name] = factory


def get_analyzer(name: str | Analyzer, **opts) -> Analyzer:
    """Resolve a registry name (plus options) — or pass an already-built
    Analyzer instance through unchanged, so pipeline operators that take
    ``analyzer=`` accept composed analyzers (pipeline/stopwords chains)
    without a registry round-trip; instances pickle into Ray tasks."""
    if isinstance(name, Analyzer):
        if opts:
            raise ValueError(
                "analyzer options are not allowed with an Analyzer instance")
        return name
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown analyzer {name!r}; known: {sorted(_REGISTRY)}") from None
    # the factory runs OUTSIDE the try: a KeyError raised inside it (e.g.
    # a pipeline/stopwords stage config missing a required key) must not
    # be misreported as "unknown analyzer"
    return factory(**opts)


def analyzer_from_config(cfg: dict) -> Analyzer:
    """Reconstruct an analyzer from a recorded ``config()`` dict.

    Query-side parity: query words must be analyzed exactly as the indexed
    terms were — options (stopwords, lowercase, delimiter, ngram bounds,
    text settings) included, not just the registry name."""
    cfg = dict(cfg or {})
    name = cfg.get("name", "unicode")
    if name.startswith("regex-"):
        tok = RegexTokenizer(kind=cfg.get("kind", name.split("-", 1)[1]),
                             lowercase=bool(cfg.get("lowercase", True)),
                             locale=cfg.get("locale", "en"))
        if cfg.get("icu") and tok._brk is None:
            # the index was built with PyICU word breaks; the regex
            # fallback segments differently -> silent zero hits
            raise RuntimeError(
                "index analyzed with PyICU word breaks but PyICU is not "
                "importable here — install PyICU or rebuild the index")
        return tok
    if name == "delimiter":
        return DelimiterAnalyzer(cfg.get("delimiter", ","))
    if name == "ngram":
        return NgramAnalyzer(min_gram=int(cfg.get("min_gram", 2)),
                             max_gram=int(cfg.get("max_gram", 3)),
                             preserve_original=bool(cfg.get("preserve_original", False)),
                             lowercase=bool(cfg.get("lowercase", True)))
    if name == "stopwords":
        return StopwordsAnalyzer(analyzer_from_config(cfg["inner"]),
                                 cfg.get("stopwords", ()))
    if name == "norm":
        return NormalizeAnalyzer(lowercase=bool(cfg.get("lowercase", True)),
                                 strip_accents=bool(cfg.get("strip_accents", True)))
    if name == "pipeline":
        return PipelineAnalyzer([analyzer_from_config(s) for s in cfg["stages"]])
    if name == "text":
        from iresearch_ray.analysis.stem import TextAnalyzer
        tok = cfg.get("tokenizer", {})
        return TextAnalyzer(stopwords=cfg.get("stopwords", ()),
                            stemming=bool(cfg.get("stemming", True)),
                            kind=tok.get("kind", "unicode"),
                            min_gram=int(cfg.get("min_gram", 0)),
                            max_gram=int(cfg.get("max_gram", 0)),
                            preserve_original=bool(cfg.get("preserve_original", True)),
                            locale=cfg.get("locale"),
                            case=cfg.get("case", "lower"),
                            accent=bool(cfg.get("accent", True)))
    if name == "minhash":
        from iresearch_ray.analysis.minhash import MinHashAnalyzer
        return MinHashAnalyzer(analyzer_from_config(cfg["inner"]),
                               num_hashes=int(cfg.get("num_hashes", 64)),
                               shingle_k=int(cfg.get("shingle_k", 3)),
                               seed=int(cfg.get("seed", 42)))
    if name == "payload-delimiter":
        return PayloadDelimiterAnalyzer(
            payload_delimiter=cfg.get("payload_delimiter", "|"),
            lowercase=bool(cfg.get("lowercase", True)))
    if name == "numeric" and "step" in cfg:
        return get_analyzer("numeric", step=int(cfg["step"]))
    if name == "collation" and cfg.get("locale") is not None:
        # locale selects the ICU-tailored key space; dropping it here
        # would rebuild the NFKD fallback and query hex sort-key terms
        # with plain strings (zero hits)
        ana = get_analyzer("collation", locale=cfg["locale"])
        if cfg.get("icu") and ana._coll is None:
            raise RuntimeError(
                "index built with PyICU collation keys but PyICU is not "
                "importable here — install PyICU or rebuild the index")
        return ana
    # option-free analyzers: stem, keyword, boolean, null, ...
    return get_analyzer(name)


register_analyzer("ascii", lambda **o: RegexTokenizer(kind="ascii", **o))
register_analyzer("unicode", lambda **o: RegexTokenizer(kind="unicode", **o))
register_analyzer("segmentation", lambda **o: RegexTokenizer(kind="unicode", **o))
register_analyzer("icu", lambda **o: RegexTokenizer(kind="icu", **o))
register_analyzer("delimiter", lambda **o: DelimiterAnalyzer(**o))
register_analyzer("ngram", lambda **o: NgramAnalyzer(**o))
register_analyzer("norm", lambda **o: NormalizeAnalyzer(**o))
# registry parity with the reference's named streams (pipeline_token_stream,
# stopwords): stage/inner accept either a registry name or a config() dict
register_analyzer("stopwords", lambda inner, stopwords: StopwordsAnalyzer(
    analyzer_from_config(inner) if isinstance(inner, dict)
    else get_analyzer(inner), stopwords))
register_analyzer("pipeline", lambda stages: PipelineAnalyzer(
    [analyzer_from_config(s) if isinstance(s, dict) else get_analyzer(s)
     for s in stages]))


def _coded_batch(codes: np.ndarray, dict_np: np.ndarray, doc_len: np.ndarray,
                 **attrs: np.ndarray) -> dict[str, np.ndarray]:
    """The coded form both tokenize paths return: ``codes`` (int64 per
    occurrence, batch-local) into ``dict`` (object ndarray, code -> term),
    batch-local ``doc_idx``, ``position`` (token ordinal within its doc)
    and per-doc ``doc_len``, plus any per-occurrence feature ``attrs``.
    Occurrences arrive in document order, so ``doc_len`` alone gives
    ``doc_idx`` and ``position``."""
    n_docs = len(doc_len)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), doc_len)
    starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(doc_len[:-1], out=starts[1:])
    position = np.arange(len(doc_idx), dtype=np.int64) - np.repeat(starts, doc_len)
    return {"codes": codes, "dict": dict_np, "doc_idx": doc_idx,
            "position": position, "doc_len": doc_len, **attrs}


def flatten_batch_arrow(analyzer: Analyzer, texts) -> dict[str, np.ndarray]:
    """Arrow-native tokenize: text column -> the coded form (``_coded_batch``).

    All heavy work runs in Arrow C kernels or one ``bytes.translate`` — no
    per-token Python objects, which is what keeps the build
    memory-bandwidth-friendly at high task concurrency: case fold, a byte
    table that turns every byte outside ``[a-z0-9]`` into a space, a
    literal split on the space, flatten, dictionary hash.  The byte table
    is exact for any UTF-8: after ``utf8_lower`` a code point is in
    ``[a-z0-9]`` exactly when it is one byte below 0x80, and every byte of
    any other code point is an ASCII non-word byte or >= 0x80.  Only
    usable when ``analyzer.arrow_tokenize`` is set (the lowercasing
    ascii word tokenizer) and no feature beyond ``pos`` is indexed; its
    output equals ``flatten_batch``'s, codes and dictionary order
    included.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = texts if isinstance(texts, (pa.Array, pa.ChunkedArray)) else pa.array(
        texts, type=pa.string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    lowered = pc.utf8_lower(arr)
    validity, value_offsets, data = lowered.buffers()
    if data is not None:
        data = pa.py_buffer(data.to_pybytes().translate(_ASCII_WORD_BYTES))
    words = pa.Array.from_buffers(lowered.type, len(lowered),
                                  [validity, value_offsets, data],
                                  null_count=lowered.null_count,
                                  offset=lowered.offset)
    lists = pc.split_pattern(words, " ")
    offsets = np.asarray(lists.offsets, dtype=np.int64)
    offsets = offsets - offsets[0]
    flat = pc.list_flatten(lists)
    mask = pc.not_equal(flat, "")  # split keeps empty pieces; drop them
    kept_before = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(mask.to_numpy(zero_copy_only=False), out=kept_before[1:])
    doc_len = kept_before[offsets[1:]] - kept_before[offsets[:-1]]
    enc = pc.dictionary_encode(flat.filter(mask))
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dict_np = enc.dictionary.to_numpy(zero_copy_only=False)
    return _coded_batch(codes, dict_np, doc_len)


# byte -> itself for [a-z0-9], else the split byte b" "
_ASCII_WORD_BYTES = bytes(
    b if 0x30 <= b <= 0x39 or 0x61 <= b <= 0x7A else 0x20 for b in range(256))


# index feature -> (per-doc analyzer method returning the tokens followed
# by one array per attribute, the attributes' (name, dtype))
_FEATURE_ATTRS = {
    "offs": ("tokens_with_offsets", (("start", np.int64), ("end", np.int64))),
    "pay": ("tokens_with_payloads", (("payload", object),)),
}


def _flat_array(values: list, dtype=object) -> np.ndarray:
    """1-D ``dtype`` array of ``values``; object by default, because a
    fixed-width string dtype would strip trailing NULs."""
    out = np.empty(len(values), dtype=dtype)
    out[:] = values
    return out


def flatten_batch(analyzer: Analyzer, texts,
                  features: tuple = ("pos",)) -> dict[str, np.ndarray]:
    """Python tokenize: text batch (list or Arrow array) -> the coded form
    (``_coded_batch``), for every analyzer.

    ``features`` are the index features.  ``'offs'`` adds per-occurrence
    char offsets into the original text (``start``/``end``, from
    ``analyzer.tokens_with_offsets``); ``'pay'`` adds per-occurrence
    payload bytes (``payload``, from ``analyzer.tokens_with_payloads``);
    otherwise ``analyzer.tokenize_batch`` runs.  A null text is an empty
    doc.  Terms are factorized per batch in first-occurrence order, like
    Arrow ``dictionary_encode``; ``SegmentWriter.flush`` merges the batch
    dictionaries into sorted global ranks.
    """
    from iresearch_ray.util import nul_safe_factorize

    if hasattr(texts, "to_pylist"):
        texts = texts.to_pylist()
    wanted = [f for f in _FEATURE_ATTRS if f in features]
    if len(wanted) > 1:
        raise ValueError("offs+pay together are not supported yet — pick one")
    attrs = {}
    if wanted:
        method, names = _FEATURE_ATTRS[wanted[0]]
        per_doc = getattr(analyzer, method)
        toks: list = []
        values: list[list] = [[] for _ in names]
        doc_len = np.zeros(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            if t is None:
                continue
            doc_toks, *doc_values = per_doc(t)
            doc_len[i] = len(doc_toks)
            toks.extend(doc_toks)
            for acc, v in zip(values, doc_values):
                acc.extend(v)
        attrs = {name: _flat_array(v, dtype)
                 for (name, dtype), v in zip(names, values)}
    else:
        toks, doc_len = analyzer.tokenize_batch(texts)
    codes, uniques = nul_safe_factorize(_flat_array(toks))
    return _coded_batch(np.asarray(codes, dtype=np.int64),
                        np.asarray(uniques, dtype=object), doc_len, **attrs)


class PayloadDelimiterAnalyzer(Analyzer):
    """Tokenizer carrying per-token payload bytes: each whitespace token
    may be ``term<payload_delimiter>payload`` (reference
    delimited_token_stream + the payload token attribute,
    core/analysis/token_attributes.hpp:68).  Payload-less tokens carry
    empty bytes."""

    def __init__(self, payload_delimiter: str = "|", lowercase: bool = True):
        self.payload_delimiter = payload_delimiter
        self.lowercase = bool(lowercase)
        self.name = "payload-delimiter"

    def _split(self, text: str) -> list[tuple[str, bytes]]:
        if not text:
            return []
        out = []
        for tok in text.split():
            term, _, pay = tok.partition(self.payload_delimiter)
            if term:
                # case-fold the TERM only — payloads are opaque bytes and
                # must round-trip verbatim
                if self.lowercase:
                    term = term.lower()
                out.append((term, pay.encode()))
        return out

    def tokens(self, text: str) -> list[str]:
        return [t for t, _ in self._split(text)]

    def tokens_with_payloads(self, text: str):
        pairs = self._split(text)
        return [t for t, _ in pairs], [p for _, p in pairs]

    def config(self) -> dict:
        return {"name": self.name,
                "payload_delimiter": self.payload_delimiter,
                "lowercase": self.lowercase}


register_analyzer("payload-delimiter",
                  lambda **o: PayloadDelimiterAnalyzer(**o))
