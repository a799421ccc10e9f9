"""Hash families: pinned kernel outputs (Ray-free) and call-time
validation of every public ``hash=`` parameter."""

import numpy as np
import pytest

from iresearch_ray.analysis.hashing import (
    FAKE_MODEL_FAMILIES,
    STRING_FAMILIES,
    fnv1a64,
    hash_family,
    md5_hash_strings,
    md5_hex_strings,
    stable_hash_strings,
    stable_id_hash,
)

STRINGS = ["", "a", "straße", "nul\x00inside",
           "".join(chr(97 + i % 26) for i in range(1000))]


def test_family_kernel_outputs_are_pinned():
    """Literal outputs per family: SQL oracles (md5 == DuckDB
    md5_number_lower / md5) and persisted split and sketch keys depend
    on these values bit for bit."""
    assert stable_hash_strings(STRINGS).tolist() == [
        1760245841805064774, 13950350942979735504, 15928018513491735123,
        9452259754804327540, 4409879229081720707]
    assert md5_hash_strings(STRINGS).tolist() == [
        9098107892288553193, 7000413967451013937, 7535474908523929225,
        4693639270964909209, 8495359785883594163]
    assert [fnv1a64(s) for s in STRINGS] == [
        1469598103934665603, 4953267810257967366, 16084277797789122554,
        6530239950834321726, 15025983468756864799]
    assert stable_id_hash(np.array([0, 1, 2**62], np.int64)).tolist() == [
        0, 6238072747940578789, 1360429390938723525]
    assert md5_hex_strings(STRINGS) == [
        "d41d8cd98f00b204e9800998ecf8427e",
        "0cc175b9c0f1b6a831c399e269772661",
        "ddc40daba2e976d4891e703081629368",
        "1b33aa4c935a159e99d4af890c282341",
        "303fb697b589019cb3edba04b794e575"]
    # string ids hash with the stable family
    assert (stable_id_hash(np.array(STRINGS, dtype=object)).tolist()
            == stable_hash_strings(STRINGS).tolist())


def test_content_hex_matches_content_key():
    """Each content family's S32 form is the hex of its group key, both
    from text and from keys collected on the driver."""
    import binascii

    import pyarrow as pa

    col = pa.array(STRINGS)
    for name in STRING_FAMILIES:
        fam = hash_family(name)
        keys = fam.content_key(col).to_pylist()
        hexed = fam.content_hex(col)
        assert list(fam.key_hex(keys)) == list(hexed)
        want = ([binascii.hexlify(k) for k in keys] if name == "stable"
                else [k.encode() for k in keys])
        assert list(hexed) == want


def test_family_table():
    """Each name resolves to its kernels; an unknown or not-accepted
    name raises and lists the accepted families."""
    assert hash_family("stable").strings64 is stable_hash_strings
    assert hash_family("md5").strings64 is md5_hash_strings
    assert (hash_family("fnv", FAKE_MODEL_FAMILIES).strings64(STRINGS)
            .tolist() == [fnv1a64(s) for s in STRINGS])
    with pytest.raises(ValueError, match="'md5', 'stable'"):
        hash_family("MD5")
    with pytest.raises(ValueError, match="'fnv', 'md5'"):
        hash_family("stable", FAKE_MODEL_FAMILIES)


def _explode(b):
    raise RuntimeError("the input Dataset was executed")


def _calls():
    from iresearch_ray.pipelines import classify, curate, dedup, textstats
    from iresearch_ray.pipelines.ingest import ingest

    return {
        "minhash_lsh_pairs": dedup.minhash_lsh_pairs,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        "rolling_doc_fingerprints": dedup.rolling_doc_fingerprints,
        "contamination_check":
            lambda ds, hash: dedup.contamination_check(ds, ["a b c"],
                                                       hash=hash),
        "simhash_groups": dedup.simhash_groups,
        "duplicated_spans": dedup.duplicated_spans,
        "duplicated_span_stats": dedup.duplicated_span_stats,
        "dedup_corpus": dedup.dedup_corpus,
        "keyterms": textstats.keyterms,
        "exact_dedup_groups": dedup.exact_dedup_groups,
        "hash_split": curate.hash_split,
        "ingest": lambda ds, hash, work_dir: ingest(ds, work_dir,
                                                    dedup_hash=hash),
        "classify": classify.classify,
        "nearest_neighbors": classify.nearest_neighbors,
    }


@pytest.mark.parametrize("name", sorted(_calls()))
def test_unknown_hash_raises_at_call_time(ray_session, tmp_path, name):
    """Every public ``hash=`` raises ValueError when called — before the
    input Dataset executes (it would raise RuntimeError if it did) and
    never as a wrapped task error.  Each family set is per function:
    the fake models reject 'stable', everything else rejects 'fnv'."""
    import ray

    fn = _calls()[name]
    kw = {"work_dir": str(tmp_path)} if name == "ingest" else {}
    ds = ray.data.range(4).map_batches(_explode)
    other = "stable" if name in ("classify", "nearest_neighbors") else "fnv"
    for bad in ("MD5", "sha1", other):
        with pytest.raises(ValueError, match="unknown hash family"):
            fn(ds, hash=bad, **kw)
