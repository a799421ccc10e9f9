"""Codec conformance (FIXTURES.md F4): round-trip, blocks, skip slices."""

import numpy as np
import pytest

from iresearch_ray.index import codec


RNG = np.random.default_rng(42)


def test_varint_roundtrip_edges():
    vals = np.array([0, 1, 127, 128, 129, 16383, 16384, 2**21 - 1, 2**21,
                     2**28 - 1, 2**28, 2**32 - 1], dtype=np.uint64)
    buf = codec.varint_encode(vals)
    out = codec.varint_decode(buf)
    assert np.array_equal(out, vals)


def test_varint_roundtrip_random():
    for size in (1, 7, 1000, 50000):
        vals = RNG.integers(0, 2**31, size=size).astype(np.uint64)
        assert np.array_equal(codec.varint_decode(codec.varint_encode(vals)), vals)


def test_varint_empty():
    assert len(codec.varint_encode(np.empty(0, dtype=np.uint64))) == 0
    assert len(codec.varint_decode(np.empty(0, dtype=np.uint8))) == 0


def _leb128_reference(buf) -> list[int]:
    """Byte-at-a-time LEB128 decode; a value cut off at the end is dropped."""
    out, val, shift = [], 0, 0
    for byte in bytes(buf):
        val |= (byte & 0x7F) << shift
        if byte < 0x80:
            out.append(val)
            val, shift = 0, 0
        else:
            shift += 7
    return out


def _leb128_encode_reference(vals) -> bytes:
    """Byte-at-a-time minimal LEB128 encode."""
    out = bytearray()
    for v in vals:
        v = int(v)
        while v >= 0x80:
            out.append(v & 0x7F | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


def _random_widths_stream(rng, n):
    """``n`` values whose LEB128 encodings are 1-5 bytes, widths uniform."""
    widths = rng.integers(1, 6, size=n)
    lo = np.where(widths > 1, 1 << (7 * (widths - 1)), 0)
    return rng.integers(lo, 1 << (7 * widths), dtype=np.int64).astype(np.uint64)


def test_varint_decode_matches_reference_decoder():
    rng = np.random.default_rng(11)
    streams = [_random_widths_stream(rng, n) for n in (1, 2, 5, 64, 1000)]
    streams.append(rng.integers(0, 128, size=500).astype(np.uint64))  # all single-byte
    streams.append(np.array([2**35 - 1, 0, 2**28, 127], dtype=np.uint64))  # 5-byte values
    for vals in streams:
        buf, offs = codec.varint_encode_offsets(vals)
        assert buf.tobytes() == _leb128_encode_reference(vals)
        assert offs.tolist() == [0, *np.cumsum(
            [len(_leb128_encode_reference([v])) for v in vals]).tolist()]
        assert _leb128_reference(buf) == vals.tolist()
        out = codec.varint_decode(buf)
        assert out.dtype == np.uint64
        assert out.tolist() == vals.tolist()
        # cut anywhere, including mid-varint: the partial tail is dropped
        for cut in sorted({0, 1, len(buf) // 2, len(buf) - 1}):
            assert codec.varint_decode(buf[:cut]).tolist() == \
                _leb128_reference(buf[:cut])
    assert codec.varint_decode(np.empty(0, dtype=np.uint8)).dtype == np.uint64
    # a blob that ends mid-varint before any value completes decodes to nothing
    assert codec.varint_decode(np.array([0x81, 0x80], dtype=np.uint8)).tolist() == []
    assert codec.varint_decode(np.array([5, 0x81], dtype=np.uint8)).tolist() == [5]


def test_encode_with_offsets_slices_decode_independently():
    vals = RNG.integers(0, 1 << 20, size=10_000).astype(np.uint64)
    bounds = np.array([0, 100, 100, 5000, 10_000], dtype=np.int64)  # incl. empty group
    blob, offs = codec.encode_with_offsets(vals, bounds)
    assert offs[0] == 0 and offs[-1] == len(blob)
    for g in range(len(bounds) - 1):
        part = codec.varint_decode(blob[offs[g]:offs[g + 1]])
        assert np.array_equal(part, vals[bounds[g]:bounds[g + 1]])


def _gapped_doc_ids(n, seed=7):
    gaps = np.random.default_rng(seed).geometric(0.1, size=n).astype(np.int64)
    return np.cumsum(gaps)


def test_delta_roundtrip_multi_list():
    # three concatenated posting lists, each strictly increasing
    a = _gapped_doc_ids(1500, 1)
    b = _gapped_doc_ids(64, 2)
    c = _gapped_doc_ids(130, 3)
    ids = np.concatenate([a, b, c])
    offs = np.array([0, len(a), len(a) + len(b), len(ids)], dtype=np.int64)
    deltas = codec.delta_encode(ids, offs)
    for lo, hi, orig in ((offs[0], offs[1], a), (offs[1], offs[2], b), (offs[2], offs[3], c)):
        assert np.array_equal(codec.delta_decode(deltas[lo:hi]), orig)


def test_delta_rejects_out_of_order():
    ids = np.array([5, 4], dtype=np.int64)
    with pytest.raises(ValueError):
        codec.delta_encode(ids, np.array([0, 2]))
    with pytest.raises(ValueError):  # duplicate doc in one list
        codec.delta_encode(np.array([3, 3]), np.array([0, 2]))


def test_block_seek_every_boundary():
    """F4: seek to every block boundary of a long list (>= 10x128 docs)."""
    n = 10 * codec.BLOCK + 37  # multiple full blocks + vInt-ish tail
    ids = _gapped_doc_ids(n, seed=11)
    freqs = np.random.default_rng(12).integers(1, 50, size=n).astype(np.uint64)
    offs = np.array([0, n], dtype=np.int64)
    deltas = codec.delta_encode(ids, offs)
    bb = codec.block_boundaries(n)
    doc_blob, doc_offs = codec.encode_with_offsets(deltas, bb)
    freq_blob, freq_offs = codec.encode_with_offsets(freqs, bb)
    last_doc = ids[bb[1:] - 1]
    max_freq = codec.block_max_reduce(freqs, bb)

    n_blocks = len(bb) - 1
    assert n_blocks == 11
    for blk in range(n_blocks):
        base = 0 if blk == 0 else int(last_doc[blk - 1])
        got = codec.delta_decode(codec.varint_decode(doc_blob[doc_offs[blk]:doc_offs[blk + 1]]), base)
        assert np.array_equal(got, ids[bb[blk]:bb[blk + 1]])
        gotf = codec.varint_decode(freq_blob[freq_offs[blk]:freq_offs[blk + 1]])
        assert np.array_equal(gotf, freqs[bb[blk]:bb[blk + 1]])
        assert max_freq[blk] == freqs[bb[blk]:bb[blk + 1]].max()
        assert last_doc[blk] == ids[bb[blk + 1] - 1]


def test_positions_delta_roundtrip():
    # two postings: freqs 3 and 2 -> position runs reset per posting
    pos = np.array([0, 4, 9, 2, 3], dtype=np.int64)
    poffs = np.array([0, 3, 5], dtype=np.int64)
    enc = codec.positions_delta_encode(pos, poffs)
    assert np.array_equal(enc, np.array([0, 4, 5, 2, 1], dtype=np.uint64))
    assert np.array_equal(codec.delta_decode(enc[0:3], 0) - enc[0] + pos[0],
                          np.array([0, 4, 9]) - pos[0] + pos[0])
    # full decode via per-run cumsum
    dec0 = codec.delta_decode(enc[0:3])
    dec1 = codec.delta_decode(enc[3:5])
    assert np.array_equal(dec0, pos[0:3])
    assert np.array_equal(dec1, pos[3:5])


def test_varint_out_of_range_raises():
    """Values >= 2^35 don't fit 5 LEB128 bytes; silent truncation would
    corrupt postings, so encoding must fail loudly."""
    import pytest

    with pytest.raises(ValueError):
        codec.varint_encode(np.array([1 << 36], dtype=np.uint64))
    with pytest.raises(ValueError):
        codec.varint_nbytes(np.array([1 << 35], dtype=np.uint64))
    # boundary: 2^35 - 1 still round-trips
    v = np.array([(1 << 35) - 1, 0, 1], dtype=np.uint64)
    assert np.array_equal(codec.varint_decode(codec.varint_encode(v)), v)
