"""Property-based conformance for the posting codec + segment round-trip
(the reference's postings.txt write/read/seek suites,
tests/formats/formats_test_case_base.cpp, regenerated by hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from iresearch_ray.index import codec
from iresearch_ray.util import nul_safe_factorize


@st.composite
def uint32_arrays(draw):
    n = draw(st.integers(0, 600))
    return np.array(draw(st.lists(
        st.integers(0, 2**32 - 1), min_size=n, max_size=n)), dtype=np.uint64)


@settings(max_examples=60, deadline=None)
@given(uint32_arrays())
def test_varint_roundtrip(vals):
    buf = codec.varint_encode(vals)
    out = codec.varint_decode(buf)
    assert np.array_equal(out, vals)
    assert len(buf) == int(codec.varint_nbytes(vals).sum())


@st.composite
def posting_lists(draw):
    n_lists = draw(st.integers(1, 8))
    lists = []
    for _ in range(n_lists):
        n = draw(st.integers(1, 300))
        docs = draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n,
                             unique=True))
        lists.append(np.sort(np.array(docs, dtype=np.int64)))
    return lists


@settings(max_examples=30, deadline=None)
@given(posting_lists())
def test_delta_roundtrip_multiple_lists(lists):
    flat = np.concatenate(lists)
    offs = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(l) for l in lists], out=offs[1:])
    deltas = codec.delta_encode(flat, offs)
    # decode each list independently (as the segment reader does)
    for i, want in enumerate(lists):
        d = deltas[offs[i]:offs[i + 1]]
        assert np.array_equal(np.cumsum(d), want)


@settings(max_examples=30, deadline=None)
@given(posting_lists())
def test_block_max_and_boundaries(lists):
    for docs in lists:
        freqs = (docs % 7) + 1
        bnd = codec.block_boundaries(len(docs))
        assert bnd[0] == 0 and bnd[-1] == len(docs)
        mx = codec.block_max_reduce(freqs, bnd)
        for b in range(len(bnd) - 1):
            assert mx[b] == freqs[bnd[b]:bnd[b + 1]].max()


@st.composite
def token_streams(draw):
    """(terms, docs, positions) for one segment, document-ordered."""
    n_docs = draw(st.integers(1, 12))
    vocab = ["w%d" % i for i in range(draw(st.integers(1, 9)))]
    terms, docs, poss = [], [], []
    for d in range(1, n_docs + 1):
        n_tok = draw(st.integers(0, 20))
        toks = draw(st.lists(st.sampled_from(vocab), min_size=n_tok,
                             max_size=n_tok))
        for p, t in enumerate(toks):
            terms.append(t)
            docs.append(d)
            poss.append(p)
    return (np.array(terms, dtype=object), np.array(docs, dtype=np.int64),
            np.array(poss, dtype=np.int64))


@settings(max_examples=30, deadline=None)
@given(token_streams())
def test_invert_roundtrip_vs_bruteforce(stream):
    from collections import defaultdict

    from iresearch_ray.index.segment import invert_coded

    terms, docs, poss = stream
    tbl = invert_coded(*nul_safe_factorize(terms, sort=True), docs, poss)
    # brute-force postings
    want = defaultdict(lambda: defaultdict(list))
    for t, d, p in zip(terms, docs, poss):
        want[t][d].append(p)
    assert tbl.num_rows == len(want)
    assert list(tbl["term"].to_pylist()) == sorted(want)
    df = tbl["df"].to_numpy()
    for row, t in enumerate(tbl["term"].to_pylist()):
        assert df[row] == len(want[t])
        doc_blob = np.frombuffer(tbl["doc_blob"][row].as_py(), dtype=np.uint8)
        got_docs = np.cumsum(codec.varint_decode(doc_blob))
        assert list(got_docs) == sorted(want[t])
        freqs = codec.varint_decode(
            np.frombuffer(tbl["freq_blob"][row].as_py(), dtype=np.uint8))
        assert [int(f) for f in freqs] == [len(want[t][d]) for d in sorted(want[t])]
        pos_deltas = codec.varint_decode(
            np.frombuffer(tbl["pos_blob"][row].as_py(), dtype=np.uint8))
        cur = 0
        got_pos = []
        i = 0
        for f in freqs:
            f = int(f)
            run = np.cumsum(pos_deltas[i:i + f])
            got_pos.append(list(run))
            i += f
        assert got_pos == [want[t][d] for d in sorted(want[t])]


@st.composite
def token_streams_with_offsets(draw):
    """Random doc set with consistent (term, position, start, end) rows."""
    n_docs = draw(st.integers(1, 12))
    terms, docs, poss, starts, ends, pays = [], [], [], [], [], []
    for d in range(1, n_docs + 1):
        n = draw(st.integers(0, 20))
        cursor = 0
        for p in range(n):
            w = draw(st.sampled_from(["aa", "bb", "cc", "dd", "e"]))
            terms.append(w)
            docs.append(d)
            poss.append(p)
            starts.append(cursor)
            cursor += len(w)
            ends.append(cursor)
            cursor += 1  # separator
            pays.append(draw(st.binary(max_size=6)))
    return (np.asarray(terms, dtype=object), np.asarray(docs, dtype=np.int64),
            np.asarray(poss, dtype=np.int64),
            np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64),
            np.asarray(pays, dtype=object))


@settings(max_examples=40, deadline=None)
@given(token_streams_with_offsets())
def test_offsets_and_payload_encode_roundtrip(stream):
    """OFFS/PAY columns round-trip per (term, doc, occurrence) — the
    hypothesis analogue of the formats .pay/.pos conformance suites."""
    from collections import defaultdict

    from iresearch_ray.index.segment import invert_coded

    terms, docs, poss, starts, ends, pays = stream
    codes, uniques = nul_safe_factorize(terms, sort=True)
    want = defaultdict(lambda: defaultdict(list))
    for t, d, p, s, e, pl in zip(terms, docs, poss, starts, ends, pays):
        want[t][d].append((p, s, e, pl))

    for kind in ("offs", "pay"):
        if kind == "offs":
            tbl = invert_coded(codes.copy(), uniques, docs.copy(),
                               poss.copy(), offs=(starts.copy(), ends.copy()))
            scol, lcol = "offs_start_blob", "offs_len_blob"
        else:
            tbl = invert_coded(codes.copy(), uniques, docs.copy(),
                               poss.copy(), pays=pays.copy())
            scol, lcol = "pay_size_blob", "pay_blob"
        assert list(tbl["term"].to_pylist()) == sorted(want)
        for row, t in enumerate(tbl["term"].to_pylist()):
            freqs = codec.varint_decode(np.frombuffer(
                tbl["freq_blob"][row].as_py(), dtype=np.uint8)).astype(np.int64)
            if kind == "offs":
                sd = codec.varint_decode(np.frombuffer(
                    tbl[scol][row].as_py(), dtype=np.uint8)).astype(np.int64)
                lens = codec.varint_decode(np.frombuffer(
                    tbl[lcol][row].as_py(), dtype=np.uint8)).astype(np.int64)
                i = 0
                got_se = []
                for f in freqs:
                    run_s = np.cumsum(sd[i:i + f])
                    got_se.extend(zip(run_s, run_s + lens[i:i + f]))
                    i += f
                exp = [(s, e) for d in sorted(want[t])
                       for (_, s, e, _) in sorted(want[t][d])]
                assert [(int(a), int(b)) for a, b in got_se] == exp
            else:
                sizes = codec.varint_decode(np.frombuffer(
                    tbl[scol][row].as_py(), dtype=np.uint8)).astype(np.int64)
                raw = tbl[lcol][row].as_py()
                bounds = np.r_[0, np.cumsum(sizes)]
                got_p = [raw[bounds[i]:bounds[i + 1]]
                         for i in range(len(sizes))]
                exp_p = [pl for d in sorted(want[t])
                         for (_, _, _, pl) in sorted(want[t][d])]
                assert got_p == exp_p


@st.composite
def event_tables(draw):
    n = draw(st.integers(1, 120))
    users = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    ts = draw(st.lists(st.integers(0, 10**10), min_size=n, max_size=n,
                       unique=True))
    vals = draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    return users, ts, vals


@settings(max_examples=8, deadline=None)  # each example runs 2 Ray pipelines
@given(event_tables(), st.integers(1, 60), st.sampled_from([1, 2, 5]))
def test_sessionize_salted_property(events, gap_minutes, bucket_hours):
    """For ANY event set / gap / bucket size, salted == unsalted."""
    import pandas as pd
    import ray.data

    from iresearch_ray.pipelines.windows import sessionize, sessionize_salted

    users, ts, vals = events
    rows = [{"event_id": i, "user_id": u, "ts": t, "value": float(v)}
            for i, (u, t, v) in enumerate(zip(users, ts, vals))]
    if gap_minutes * 60 * 1_000_000 >= bucket_hours * 3_600 * 1_000_000:
        return  # guarded combination
    a = sessionize(ray.data.from_items(rows),
                   gap_minutes=gap_minutes, salted=False).to_pandas()
    b = sessionize_salted(ray.data.from_items(rows),
                          gap_minutes=gap_minutes,
                          bucket_hours=bucket_hours).to_pandas()
    key = ["user_id", "session_id"]
    a = a.sort_values(key).reset_index(drop=True)[sorted(a.columns)]
    b = b.sort_values(key).reset_index(drop=True)[sorted(b.columns)]
    pd.testing.assert_frame_equal(
        a.astype({"n_events": np.int64}), b.astype({"n_events": np.int64}))
