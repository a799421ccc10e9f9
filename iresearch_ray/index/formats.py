"""Codec/format registry: named segment storage formats.

Mirrors the reference's multi-version format registry
(``formats::get("1_0".."1_5simd")``, core/formats/formats.cpp:188): a
format name selects how segment artifacts are physically encoded and
``index-convert`` moves an index from one format to another.

Our artifacts are Parquet, so the honest analogue of the reference's
per-version posting encodings is the per-artifact compression codec:
postings blobs are already varint+delta (format-independent), and Parquet
self-describes its codec, so READERS need no dispatch — any registered
format is readable by the same reader, exactly like the reference's
format-tagged segments.  Since formats differ only in compression,
``index-convert`` splices the postings bytes through the merge and lets
the destination's codecs re-compress them; it needs no decode -> encode
route.  The SIMD bit-packing variants (1_*simd) have no Python analogue
and are deliberately out of scope (documented).

- ``1_0``: zstd everywhere — smallest at rest, the default.
- ``1_1``: lz4 postings/docmap (faster decode for hot query serving),
  zstd columnstore (cold, bulk).
- ``1_2``: snappy everywhere — lowest-CPU writes for throwaway indexes.
"""

from __future__ import annotations

DEFAULT_FORMAT = "1_0"

_FORMATS: dict[str, dict] = {
    "1_0": {"terms": "zstd", "docmap": "zstd", "columns": "zstd"},
    "1_1": {"terms": "lz4", "docmap": "lz4", "columns": "zstd"},
    "1_2": {"terms": "snappy", "docmap": "snappy", "columns": "snappy"},
}


def get_format(name) -> dict:
    """Format spec for ``name`` (legacy integer 1 == '1_0')."""
    if name in (None, 1, "1"):
        name = DEFAULT_FORMAT
    try:
        return dict(_FORMATS[name])
    except KeyError:
        raise KeyError(
            f"unknown index format {name!r}; known: {sorted(_FORMATS)}"
        ) from None


def known_formats() -> list[str]:
    return sorted(_FORMATS)
