"""Golden-token tests per analyzer (reference test strategy: golden token
sequences, tests/analysis/*_tests.cpp)."""

import numpy as np

from iresearch_ray.analysis import (
    DelimiterAnalyzer,
    NgramAnalyzer,
    NormalizeAnalyzer,
    PipelineAnalyzer,
    RegexTokenizer,
    StopwordsAnalyzer,
    get_analyzer,
)
from iresearch_ray.analysis.tokenizers import flatten_batch


def test_ascii_tokenizer_golden():
    a = get_analyzer("ascii")
    assert a.tokens("The quick  brown-fox, 42!") == ["the", "quick", "brown", "fox", "42"]
    assert a.tokens("") == []
    assert a.tokens("...") == []
    # non-ascii letters are separators in ascii mode
    assert a.tokens("naïve café") == ["na", "ve", "caf"]


def test_unicode_tokenizer_golden():
    a = get_analyzer("unicode")
    assert a.tokens("Naïve café!") == ["naïve", "café"]
    assert a.tokens("a_b c") == ["a_b", "c"]


def test_delimiter():
    a = DelimiterAnalyzer(",")
    assert a.tokens("a,b,,c") == ["a", "b", "", "c"]
    assert a.tokens("") == []


def test_ngram_golden():
    a = NgramAnalyzer(min_gram=2, max_gram=3, lowercase=True)
    assert a.tokens("AbCd") == ["ab", "abc", "bc", "bcd", "cd"]
    ap = NgramAnalyzer(min_gram=2, max_gram=2, preserve_original=True)
    assert ap.tokens("a") == ["a"]        # too short -> only original
    assert ap.tokens("ab") == ["ab"]      # exact size, no duplicate original
    assert ap.tokens("abc") == ["ab", "bc", "abc"]


def test_stopwords_and_pipeline():
    base = RegexTokenizer(kind="ascii")
    sw = StopwordsAnalyzer(base, {"the", "a"})
    assert sw.tokens("the cat a hat") == ["cat", "hat"]
    pipe = PipelineAnalyzer([DelimiterAnalyzer(","), RegexTokenizer(kind="ascii")])
    assert pipe.tokens("Foo Bar,Baz-9") == ["foo", "bar", "baz", "9"]


def test_normalize():
    n = NormalizeAnalyzer()
    assert n.tokens("Crème BrÛlée") == ["creme brulee"]


def test_flatten_batch_positions():
    a = get_analyzer("ascii")
    flat = flatten_batch(a, ["x y x", "", "z"])
    assert list(flat["dict"][flat["codes"]]) == ["x", "y", "x", "z"]
    assert list(flat["doc_idx"]) == [0, 0, 0, 2]
    assert list(flat["position"]) == [0, 1, 2, 0]
    assert list(flat["doc_len"]) == [3, 0, 1]


def test_analyzer_config_stable():
    a1 = get_analyzer("ascii")
    a2 = get_analyzer("ascii")
    assert a1.config() == a2.config()
    assert np.array_equal(a1.tokens("a b"), a2.tokens("a b"))


def test_porter_stem_golden():
    # Classic vectors from the published Porter (1980) rule set.
    from iresearch_ray.analysis.stem import porter_stem

    cases = {
        "caresses": "caress", "ponies": "poni", "ties": "ti",
        "caress": "caress", "cats": "cat", "feed": "feed",
        "agreed": "agre", "plastered": "plaster", "bled": "bled",
        "motoring": "motor", "sing": "sing", "conflated": "conflat",
        "troubled": "troubl", "sized": "size", "hopping": "hop",
        "falling": "fall", "hissing": "hiss", "failing": "fail",
        "filing": "file", "happy": "happi", "sky": "sky",
        "relational": "relat", "conditional": "condit",
        "vietnamization": "vietnam", "predication": "predic",
        "triplicate": "triplic", "formative": "form", "formalize": "formal",
        "electricity": "electr", "hopefulness": "hope",
        "revival": "reviv", "allowance": "allow", "inference": "infer",
        "airliner": "airlin", "adjustable": "adjust", "defensible": "defens",
        "adoption": "adopt", "probate": "probat", "rate": "rate",
        "cease": "ceas", "controlling": "control",
    }
    for w, want in cases.items():
        assert porter_stem(w) == want, (w, porter_stem(w), want)


def test_stem_and_text_analyzers():
    stem = get_analyzer("stem")
    assert stem.tokens("Running") == ["run"]
    txt = get_analyzer("text", stopwords=("the", "of"))
    assert txt.tokens("The running of the dogs") == ["run", "dog"]
    plain = get_analyzer("text", stemming=False)
    assert plain.tokens("Running dogs") == ["running", "dogs"]
    assert txt.config()["stopwords"] == ["of", "the"]


def test_registry_pipeline_stopwords_and_instance_passthrough():
    """pipeline / stopwords resolve by registry name (stages/inner accept
    names or config() dicts), and get_analyzer passes an already-built
    instance straight through (composed analyzers into `analyzer=` params)."""
    p = get_analyzer("pipeline", stages=[
        {"name": "delimiter", "delimiter": " "},
        {"name": "stopwords", "inner": {"name": "norm", "lowercase": True,
                                        "strip_accents": False},
         "stopwords": ["the"]},
    ])
    assert p.tokens("The Quick the FOX") == ["quick", "fox"]
    sw = get_analyzer("stopwords", inner="ascii", stopwords=("of",))
    assert sw.tokens("The sum of parts") == ["the", "sum", "parts"]
    # instance passthrough: identity, and opts are rejected
    assert get_analyzer(p) is p
    import pytest as _pytest
    with _pytest.raises(ValueError):
        get_analyzer(p, delimiter=",")
    # a KeyError raised INSIDE a factory (stage config missing 'inner')
    # must surface as-is, not be misreported as "unknown analyzer"
    with _pytest.raises(KeyError) as ei:
        get_analyzer("pipeline",
                     stages=[{"name": "stopwords", "stopwords": ["x"]}])
    assert "unknown analyzer" not in str(ei.value)
    # round-trips through config() like every other registered analyzer
    from iresearch_ray.analysis.tokenizers import analyzer_from_config
    assert analyzer_from_config(p.config()).tokens("The a B") == p.tokens("The a B")


def test_keyword_boolean_null_collation():
    assert get_analyzer("keyword").tokens("Exact Value!") == ["Exact Value!"]
    bo = get_analyzer("boolean")
    assert bo.tokens(True) == ["$true"]
    assert bo.tokens("no") == ["$false"]
    assert bo.tokens(None) == ["$null"]
    assert get_analyzer("null").tokens("anything") == ["$null"]
    co = get_analyzer("collation")
    assert co.tokens("Héllo") == ["hello"]
    # collation keys are byte-comparable: accent-insensitive order
    assert co.tokens("café")[0] < co.tokens("Caff")[0]
    # locale requested without PyICU (this container): documented NFKD
    # fallback, and the lineage config records the absence
    loc = get_analyzer("collation", locale="de")
    assert loc.tokens("Héllo") == ["hello"]
    assert loc.config() == {"name": "collation", "locale": "de",
                            "icu": False}
    assert co.config() == {"name": "collation"}


def test_collation_config_roundtrip_and_icu_guards():
    """Query-side reconstruction keeps the collation locale (dropping it
    would query hex ICU sort-key terms with NFKD strings — zero hits),
    and a recorded icu=True with PyICU absent raises loudly instead of
    silently diverging; same guard for the icu word-break tier."""
    from iresearch_ray.analysis.tokenizers import analyzer_from_config

    ana = analyzer_from_config({"name": "collation", "locale": "de",
                                "icu": False})
    assert ana.locale == "de"
    assert ana.tokens("Héllo") == ["hello"]  # fallback in this container
    assert analyzer_from_config({"name": "collation"}).locale is None
    import pytest as _pytest
    with _pytest.raises(RuntimeError, match="PyICU"):
        analyzer_from_config({"name": "collation", "locale": "de",
                              "icu": True})
    with _pytest.raises(RuntimeError, match="PyICU"):
        analyzer_from_config({"name": "regex-icu", "kind": "icu",
                              "locale": "ja", "icu": True})


def test_collation_pyicu_plumbing(monkeypatch):
    """With a (fake) PyICU importable and locale=, the collation term is
    the ICU sort key hex-encoded — two lowercase hex digits per byte
    keep byte order, so range/prefix filters sort identically to the
    raw key."""
    import sys

    import iresearch_ray.analysis.tokens as TK

    class FakeCollator:
        def getSortKey(self, text):
            return text.encode("utf-8")[::-1]  # distinctive, not NFKD

    fake = type(sys)("icu")
    fake.Collator = type("C", (), {
        "createInstance": staticmethod(lambda loc: FakeCollator())})
    fake.Locale = lambda loc: loc
    monkeypatch.setitem(sys.modules, "icu", fake)

    co = TK.CollationAnalyzer(locale="sv")
    assert co.tokens("ab") == [b"ba".hex()]
    assert co.config() == {"name": "collation", "locale": "sv",
                           "icu": True}
    # hex encoding preserves byte order
    a, b = bytes([0x01, 0xFF]), bytes([0x02, 0x00])
    assert (a.hex() < b.hex()) == (a < b)


def test_minhash_registered_and_stable():
    a = get_analyzer("minhash", num_hashes=8)
    t1 = a.tokens("the quick brown fox jumps over the lazy dog")
    t2 = a.tokens("the quick brown fox jumps over the lazy dog")
    assert t1 == t2 and len(t1) == 8
    assert all(len(x) == 16 for x in t1)


def test_text_edge_ngrams():
    a = get_analyzer("text", stemming=False, min_gram=2, max_gram=3)
    # "hello" -> he, hel + original (longer than max_gram)
    assert a.tokens("hello") == ["he", "hel", "hello"]
    # token shorter than max_gram: no duplicate original
    assert a.tokens("hi") == ["hi"]
    b = get_analyzer("text", stemming=False, min_gram=2, max_gram=3,
                     preserve_original=False)
    assert b.tokens("hello") == ["he", "hel"]
    # min_gram alone implies max_gram = min_gram
    c = get_analyzer("text", stemming=False, min_gram=3)
    assert c.tokens("hello") == ["hel", "hello"]


def test_offsets_survive_length_changing_casefold():
    # 'İ' (U+0130) lowercases to 2 codepoints; offsets must still index
    # the ORIGINAL text (review finding: highlight spans were shifted)
    a = get_analyzer("unicode")
    text = "İstanbul batch here"
    toks, starts, ends = a.tokens_with_offsets(text)
    assert "batch" in toks
    i = toks.index("batch")
    assert text[starts[i]:ends[i]] == "batch"
    # fast path still exact
    toks2, s2, e2 = a.tokens_with_offsets("plain batch text")
    j = toks2.index("batch")
    assert "plain batch text"[s2[j]:e2[j]] == "batch"


def test_ascii_python_and_arrow_paths_agree_on_every_code_point():
    """The ``ascii`` analyzer's two tokenize paths (Arrow kernels, and
    Python ``tokens`` that queries and ``offs`` builds use) split every
    non-surrogate code point the same way, case folds included."""
    from iresearch_ray.analysis.tokenizers import flatten_batch_arrow

    a = get_analyzer("ascii")
    cps = [c for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    texts = ["a" + chr(c) + "b" + chr(c) for c in cps]
    arrow, py = flatten_batch_arrow(a, texts), flatten_batch(a, texts)
    split = np.flatnonzero(arrow["doc_len"] != py["doc_len"])
    assert [hex(cps[i]) for i in split] == []
    assert (arrow["dict"][arrow["codes"]] == py["dict"][py["codes"]]).all()
    text = "\u0130stanbul and \u0130x"
    assert a.tokens(text) == ["istanbul", "and", "ix"]
    toks, starts, ends = a.tokens_with_offsets("\u0130x \ufb01 y")
    assert toks == ["ix", "y"] and starts.tolist() == [0, 5]


def test_null_text_is_empty_document():
    """A null text row must tokenize to zero tokens in the Python batch
    path, matching the Arrow fast path (nulls -> empty docs), instead of
    crashing the whole segment-build task."""
    from iresearch_ray.analysis import get_analyzer
    from iresearch_ray.analysis.tokenizers import flatten_batch

    for name in ("ascii", "unicode", "text", "stem"):
        ana = get_analyzer(name)
        flat, counts = ana.tokenize_batch(["one two", None, "three"])
        assert counts[1] == 0, name
        assert counts[0] > 0 and counts[2] > 0, name
    out = flatten_batch(get_analyzer("ascii"), ["a b", None])
    assert list(out["doc_len"]) == [2, 0]


def test_analyzer_from_config_roundtrip():
    """config() -> analyzer_from_config reconstructs options, not just the
    name (query-side parity with the recorded index analyzer)."""
    from iresearch_ray.analysis import (
        DelimiterAnalyzer,
        NgramAnalyzer,
        PipelineAnalyzer,
        RegexTokenizer,
        StopwordsAnalyzer,
    )
    from iresearch_ray.analysis.minhash import MinHashAnalyzer
    from iresearch_ray.analysis.stem import TextAnalyzer
    from iresearch_ray.analysis.tokenizers import analyzer_from_config

    cases = [
        (RegexTokenizer(kind="unicode", lowercase=False), "Alpha Beta"),
        (DelimiterAnalyzer("|"), "a|b|c"),
        (NgramAnalyzer(min_gram=3, max_gram=4, preserve_original=True), "ab"),
        (StopwordsAnalyzer(RegexTokenizer(kind="ascii"), ["the", "a"]),
         "the quick a fox"),
        (PipelineAnalyzer([DelimiterAnalyzer(";"),
                           RegexTokenizer(kind="ascii")]), "One;Two Three"),
        (TextAnalyzer(stopwords=["of"], min_gram=2, max_gram=3), "running of dogs"),
        (MinHashAnalyzer(RegexTokenizer(kind="ascii"), num_hashes=8,
                         shingle_k=2, seed=7), "w x y z w x y"),
    ]
    for ana, text in cases:
        rebuilt = analyzer_from_config(ana.config())
        assert rebuilt.tokens(text) == ana.tokens(text), ana.config()
        assert rebuilt.config() == ana.config()


def test_icu_tokenizer_fallback_cjk():
    """Without PyICU (this container), kind='icu' segments with the
    documented fallback: Han ideographs as unigrams (the public Lucene
    StandardTokenizer convention), kana runs as single tokens, other
    scripts via word runs with underscore as a boundary."""
    from iresearch_ray.analysis.tokenizers import (RegexTokenizer,
                                                   analyzer_from_config,
                                                   get_analyzer)

    t = get_analyzer("icu", locale="ja")
    assert t._brk is None  # PyICU absent here
    assert t.tokens("Hello 世界の平和 カタカナ a_b") == \
        ["hello", "世", "界", "の", "平", "和", "カタカナ", "a", "b"]
    toks, starts, ends = t.tokens_with_offsets("ab 世界")
    assert toks == ["ab", "世", "界"]
    assert list(starts) == [0, 3, 4] and list(ends) == [2, 4, 5]
    # locale + icu-presence are lineage-relevant and must round-trip
    cfg = t.config()
    assert cfg["locale"] == "ja" and cfg["icu"] is False
    rebuilt = analyzer_from_config(cfg)
    assert rebuilt.tokens("世界 peace") == t.tokens("世界 peace")
    assert rebuilt.config() == cfg
    assert RegexTokenizer(kind="unicode").config().get("locale") is None


def test_icu_tokenizer_pyicu_plumbing(monkeypatch):
    """With a (fake) PyICU importable, kind='icu' routes through the
    BreakIterator word-boundary API: setText -> iterate boundaries ->
    keep spans whose rule status is not UBRK_WORD_NONE."""
    import sys

    import iresearch_ray.analysis.tokenizers as T

    class FakeBreak:
        def createWordInstance(loc):  # noqa: N805 - mimics classmethod
            return FakeBreak()

        def setText(self, text):
            self._text = text
            self._bounds = []
            self._status = []
            pos = 0
            for part in text.split(" "):
                if part:
                    self._bounds.append(pos + len(part))
                    self._status.append(200)  # UBRK_WORD_LETTER
                pos += len(part)
                if pos < len(text):
                    self._bounds.append(pos + 1)
                    self._status.append(0)  # separator span
                    pos += 1
            self._i = -1

        def first(self):
            return 0

        def __iter__(self):
            return self

        def __next__(self):
            self._i += 1
            if self._i >= len(self._bounds):
                raise StopIteration
            return self._bounds[self._i]

        def getRuleStatus(self):
            return self._status[self._i]

    fake = type(sys)("icu")
    fake.BreakIterator = FakeBreak
    fake.Locale = lambda loc: loc
    monkeypatch.setitem(sys.modules, "icu", fake)

    t = T.RegexTokenizer(kind="icu", locale="th")
    assert t._brk is not None
    assert t.tokens("Hello World X") == ["hello", "world", "x"]
    toks, starts, ends = t._icu_words("ab cd")
    assert toks == ["ab", "cd"]
    assert list(starts) == [0, 3] and list(ends) == [2, 5]
    assert t.config()["icu"] is True
    # the offsets path MUST segment identically to tokens(): the fake
    # splits on spaces only, so "can't" stays one token where the regex
    # fallback would split it — a desync here corrupts OFFS indexes
    toks2, starts2, ends2 = t.tokens_with_offsets("can't x")
    assert toks2 == ["can't", "x"]
    assert list(starts2) == [0, 6] and list(ends2) == [5, 7]
