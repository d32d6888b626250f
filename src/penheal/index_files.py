"""A knowledge index on disk: ``KnowledgeBase.save`` and ``KnowledgeBase.load``.

Only a command that writes or reads an index imports this module, on the first
``save`` or ``load``. An index directory holds three files. postings.bin stores
the postings little-endian: EMBED_DIM uint32 posting counts, every uint32 row
id, then every uint32 count; load sums each row's squared norm from them.
texts.bin holds a uint32 length in characters per chunk, then every chunk's
text as one UTF-8 string, in row order. meta.json names LAYOUT and lists each
doc id and its chunk count in row order, as ingest keeps a document's chunks
together as seq 0..k-1. An index in another layout, as of older versions, must
be ingested again.
"""

from __future__ import annotations

import io
import sys
from array import array
from collections import Counter
from functools import partial
from itertools import accumulate, pairwise
from operator import attrgetter, lt
from pathlib import Path
from typing import Optional

from .knowledge import EMBED_DIM, EMBEDDER_ID, KEY_BITS, Chunk, KnowledgeBase, KnowledgeBaseError
from .model import Record, decode, encode, json_document, load_json

LAYOUT = f"{EMBEDDER_ID} postings-uint32-le texts-uint32-lengths-utf8"  # embedder, file layouts


class IndexMeta(Record):
    """The fields of an index's meta.json that a load checks."""

    layout: Optional[str] = None  # LAYOUT; an index of older versions has none
    documents: tuple[tuple[str, int], ...] = ()  # (doc_id, chunk count) in row order


def _little_endian(part: array) -> array:
    """``part`` in the byte order of postings.bin: on a big-endian host, a byte-swapped copy."""
    if sys.byteorder == "big":
        part = array(part.typecode, part)
        part.byteswap()
    return part


def save(kb: KnowledgeBase, directory: str | Path) -> None:
    """Write postings.bin, texts.bin and meta.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    parts = [array("I", map(len, kb._rows)), *kb._rows, *kb._counts]
    postings = b"".join(_little_endian(part).tobytes() for part in parts)
    (directory / "postings.bin").write_bytes(postings)
    texts = [c.text for c in kb._chunks]
    with open(directory / "texts.bin", "wb") as fh:
        fh.write(_little_endian(array("I", map(len, texts))).tobytes())
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as writer:
            writer.writelines(texts)  # a chunk at a time, as load reads them
    documents = Counter(map(attrgetter("doc_id"), kb._chunks))  # in row order, see ingest
    meta = IndexMeta(LAYOUT, tuple(documents.items()))
    (directory / "meta.json").write_text(json_document(encode(meta)), encoding="utf-8")


def load(cls: type[KnowledgeBase], directory: str | Path) -> KnowledgeBase:
    """Read an index saved by ``save`` as a ``cls``.

    An index whose meta.json names another layout or none (one of older
    versions, or of another embedder) raises KnowledgeBaseError, as does
    one whose documents name a doc id twice or with no chunk, whose
    texts.bin is short, not UTF-8 or has lengths that do not sum to its
    text, or whose postings.bin does not fit its chunks: the wrong size, a
    row id out of range, a bucket that lists a row twice or out of order, a
    count of 0, a chunk with no posting, or a chunk whose squared counts
    sum above 2**(2 * KEY_BITS), which retrieve cannot rank exactly. Files
    that do not decode raise OSError, KeyError or ValueError.
    """
    directory = Path(directory)
    meta = load_json((directory / "meta.json").read_text(encoding="utf-8"),
                     partial(decode, IndexMeta))
    if meta.layout != LAYOUT:  # an index of another version: a new ingest rebuilds it
        raise KnowledgeBaseError(f"index layout {meta.layout!r} is not {LAYOUT!r}; re-run "
                                 "`penheal ingest` on its documents into a new directory")
    if len(dict(meta.documents)) < len(meta.documents) or any(k < 1 for _, k in meta.documents):
        raise KnowledgeBaseError("meta.json documents must name each doc id once, each with 1 "
                                 "or more chunks")
    ids = [(doc_id, seq) for doc_id, k in meta.documents for seq in range(k)]
    end = 4 * len(ids)  # of the lengths
    with open(directory / "texts.bin", "rb") as fh:
        head = fh.read(end)
        if len(head) < end:
            raise KnowledgeBaseError(f"texts.bin has {len(head)} bytes, fewer than 4 per chunk")
        lengths = _little_endian(array("I", head))
        reader = io.TextIOWrapper(fh, encoding="utf-8", newline="")  # reads characters
        try:  # a chunk at a time: no copy of the whole text is held
            texts = [reader.read(n) for n in lengths]
            size = sum(map(len, texts)) + len(reader.read())
        except UnicodeDecodeError as exc:
            raise KnowledgeBaseError(f"texts.bin is not UTF-8: {exc.reason}") from None
    if size != sum(lengths):
        raise KnowledgeBaseError(f"texts.bin has lengths that sum to {sum(lengths)}, "
                                 f"not its {size} characters")
    chunks = [Chunk(doc_id, seq, text) for (doc_id, seq), text in zip(ids, texts)]
    data = (directory / "postings.bin").read_bytes()
    head = 4 * EMBED_DIM
    sizes = _little_endian(array("I", data[:head] if len(data) >= head else b""))
    total = sum(sizes)
    if len(data) != head + 8 * total:
        raise KnowledgeBaseError(f"postings.bin has {len(data)} bytes, not {head} plus 8 "
                                 "per posting it counts")
    split = head + 4 * total
    rows = _little_endian(array("I", data[head:split]))
    counts = _little_endian(array("I", data[split:]))
    bounds = list(pairwise(accumulate(sizes, initial=0)))
    buckets, n = [rows[a:b] for a, b in bounds], len(chunks)
    every = array("I", range(n))  # rows ascend strictly below n, so a bucket of n is these
    if not all(r == every if len(r) == n else all(map(lt, r, r[1:])) and r[-1] < n
               for r in buckets if r):
        raise KnowledgeBaseError(f"postings.bin has a row id outside 0..{n - 1} or twice or "
                                 "out of order in a bucket")
    kb = cls()
    kb._rows = buckets
    kb._counts = [counts[a:b] for a, b in bounds]
    kb._chunks = chunks
    kb._doc_ids = {c.doc_id for c in chunks}
    squares = kb._norms()
    if 0 in counts or 0 in squares:
        raise KnowledgeBaseError("postings.bin has a term count of 0 or a chunk with no posting")
    if max(squares, default=0) > 1 << 2 * KEY_BITS:
        raise KnowledgeBaseError(f"postings.bin has a squared norm above 2**{2 * KEY_BITS}")
    return kb
