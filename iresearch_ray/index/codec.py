"""Vectorized posting-list codec: LEB128 varints, delta docs, 128-doc blocks.

Mirrors the behaviors of the reference postings format (128-int doc blocks
with skip metadata and per-block max-freq for WAND pruning — see
/root/reference/core/formats/formats_10.cpp:74,342-343,279-298) but the
implementation is brand-new numpy: every encode/decode is a whole-array
pass (no per-value Python), so a segment's entire postings stream is
encoded in O(5) vector sweeps.

Layout per term (all little-endian LEB128 byte streams):
- doc blob:  varint(delta doc_ids); delta[0] = first doc id (docs are 1-based,
  strictly increasing within a list, as the reference enforces —
  formats_10.cpp:804-828 "docs out of order").
- freq blob: varint(freq per posting).
- pos blob:  varint(delta positions) per posting, concatenated doc-by-doc
  (counts given by freqs); positions are token ordinals, delta-reset per doc.
- skip arrays (kept only for df > BLOCK): per 128-posting block the last
  doc id, max freq, and byte offsets of the block start within each blob,
  so WAND can decode surviving blocks only.
"""

from __future__ import annotations

import numpy as np

BLOCK = 128  # postings per block, mirrors reference SIMDBlockSize

_THRESHOLDS = np.array([1 << 7, 1 << 14, 1 << 21, 1 << 28], dtype=np.uint64)
_MAX_VARINT_BYTES = 5  # values are uint32-ranged


def varint_nbytes(values: np.ndarray) -> np.ndarray:
    """Byte length of each value's LEB128 encoding (values must fit uint32)."""
    v = values.astype(np.uint64, copy=False)
    if len(v) and int(v.max()) >= (1 << 35):
        # 5 LEB128 bytes hold 35 bits; anything larger would silently
        # truncate and corrupt postings — fail loudly instead
        raise ValueError(
            f"varint value {int(v.max())} exceeds 5-byte LEB128 range (2^35)")
    nb = np.ones(len(v), dtype=np.int64)
    for t in _THRESHOLDS:
        nb += v >= t
    return nb


def varint_encode(values: np.ndarray) -> np.ndarray:
    """Encode an array of uint32-ranged ints to one LEB128 byte stream."""
    return varint_encode_offsets(values)[0]


def varint_encode_offsets(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``varint_encode`` plus each value's byte offset in the stream
    (len n + 1, last = stream length)."""
    v = values.astype(np.uint64, copy=False)
    nb = varint_nbytes(v)
    offs = np.zeros(len(v) + 1, dtype=np.int64)
    np.cumsum(nb, out=offs[1:])
    starts = offs[:-1]
    # every value writes its first byte; each later pass writes byte j of
    # the values that still have one, a subset that shrinks each pass
    out = np.empty(int(offs[-1]), dtype=np.uint8)
    more = nb > 1
    out[starts] = (v & np.uint64(0x7F)).astype(np.uint8) | (
        more.astype(np.uint8) << 7)
    at = np.flatnonzero(more)
    for j in range(1, _MAX_VARINT_BYTES):
        if len(at) == 0:
            break
        more = nb[at] > j + 1
        byte = ((v[at] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        out[starts[at] + j] = byte | (more.astype(np.uint8) << 7)
        at = at[more]
    return out, offs


def varint_decode(buf: np.ndarray) -> np.ndarray:
    """Decode a LEB128 byte stream (exact slice) back to a uint64 array.

    Continuation bytes after the last terminal byte (a value cut off
    mid-varint) are dropped.  A blob with no continuation bit set is one
    byte per value — the common case for doc gaps, freqs and positions —
    and decodes in one cast.  Otherwise each value starts as its terminal
    byte, which holds the top 7 bits (LEB128 is little-endian), and each
    pass folds in the preceding continuation byte of the values that
    still have one: at most 4 passes, each over a shrinking subset."""
    b = np.asarray(buf, dtype=np.uint8)
    if len(b) == 0 or b.max() < 0x80:
        return b.astype(np.uint64)
    # a leading terminal byte stops every backward walk inside the buffer
    b = np.concatenate((np.zeros(1, dtype=np.uint8), b))
    pos = np.flatnonzero(b < 0x80)[1:]
    vals = b[pos].astype(np.uint64)
    at = np.arange(len(pos))
    while True:
        pos = pos - 1
        byte = b[pos]
        keep = np.flatnonzero(byte >= 0x80)
        if len(keep) == 0:
            return vals
        at, pos = at[keep], pos[keep]
        vals[at] = (vals[at] << np.uint64(7)) | (byte[keep] & np.uint8(0x7F))


def encode_with_offsets(values: np.ndarray, boundaries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode `values` as one varint stream; return (blob, byte_offsets).

    `boundaries` are value-index cut points (e.g. per-term or per-block value
    offsets, len = n_groups + 1, boundaries[0] == 0,
    boundaries[-1] == len(values)).  Returned `byte_offsets` are the byte
    positions of each boundary in the blob (len = n_groups + 1) so each
    group decodes from an exact slice.
    """
    blob, offs = varint_encode_offsets(values)
    return blob, offs[np.asarray(boundaries, dtype=np.int64)]


def delta_encode(doc_ids: np.ndarray, list_offsets: np.ndarray) -> np.ndarray:
    """Per-list delta encode concatenated sorted doc-id lists.

    `list_offsets` (len = n_lists + 1) marks each posting list's slice.
    Within a list delta[i] = doc[i] - doc[i-1]; delta[0] = doc[0] (base 0).
    """
    ids = doc_ids.astype(np.int64, copy=False)
    out = np.empty(len(ids), dtype=np.int64)
    if len(ids) == 0:
        return out.astype(np.uint64)
    out[0] = ids[0]
    out[1:] = ids[1:] - ids[:-1]
    starts = np.asarray(list_offsets[:-1], dtype=np.int64)
    starts = starts[starts < len(ids)]
    out[starts] = ids[starts]  # reset base at each list head
    if (out[starts] <= 0).any() or (np.delete(out, starts) <= 0).any():
        raise ValueError("docs out of order: doc ids must be strictly increasing per list")
    return out.astype(np.uint64)


def delta_decode(deltas: np.ndarray, base: int = 0) -> np.ndarray:
    """Inverse of per-list delta for ONE list slice: cumsum from `base`."""
    return base + np.cumsum(deltas.astype(np.int64, copy=False))


def positions_delta_encode(positions: np.ndarray, posting_offsets: np.ndarray) -> np.ndarray:
    """Delta-encode per-posting position runs (delta resets at each posting).

    `positions` are token ordinals sorted ascending within each posting's run;
    `posting_offsets` (len = n_postings + 1) marks each run.  First position
    of a run is stored as-is (positions are 0-based ordinals, so store +1 to
    keep varints nonzero-friendly? — no: store raw; 0 encodes fine).
    """
    p = positions.astype(np.int64, copy=False)
    out = np.empty(len(p), dtype=np.int64)
    if len(p) == 0:
        return out.astype(np.uint64)
    out[0] = p[0]
    out[1:] = p[1:] - p[:-1]
    starts = np.asarray(posting_offsets[:-1], dtype=np.int64)
    starts = starts[starts < len(p)]
    out[starts] = p[starts]
    if (out < 0).any():
        raise ValueError("positions out of order within a posting")
    return out.astype(np.uint64)


def block_boundaries(df: int) -> np.ndarray:
    """Value-index cut points for 128-posting blocks of one list (len nblocks+1)."""
    n_blocks = (df + BLOCK - 1) // BLOCK
    b = np.arange(n_blocks + 1, dtype=np.int64) * BLOCK
    b[-1] = df
    return b


def block_max_reduce(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Per-block max over `values` given block value-offsets (len nblocks+1)."""
    if len(values) == 0:
        return np.empty(0, dtype=values.dtype)
    return np.maximum.reduceat(values, boundaries[:-1])
