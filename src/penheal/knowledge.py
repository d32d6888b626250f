"""External knowledge base backing the instructor.

Reference documents are split into overlapping character windows, embedded,
and found by exact cosine retrieval. There is one embedder, a deterministic
hashed term-frequency vector (``embed``), so runs are hermetic and an index
built in one process answers queries in another. Embeddings are held
bucket-major as postings (per bucket, the rows nonzero there and their
entries), so a query visits only entries it can score. postings.bin stores
them little-endian: EMBED_DIM int32 posting counts, every int32 row id, then
every float64 entry. An index in another layout, such as the dense
vectors.bin of older versions, must be ingested again.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import re
import sys
import threading
from array import array
from collections import Counter
from functools import partial
from itertools import accumulate, compress, pairwise, repeat
from operator import ge, mul, not_, truediv
from pathlib import Path
from typing import NamedTuple

from .gateway import AgentRole
from .model import decode, encode, json_text, load_json
from .prompts import render_prompt

EMBED_DIM = 512
DEFAULT_CHUNK_SIZE = 800
DEFAULT_OVERLAP = 200
EMBEDDER_ID = f"hashed-tf-{EMBED_DIM}"
BUCKET_MAP_SIZE = 1 << 16  # the token -> bucket map is emptied when it holds this many

_TOKEN = re.compile(r"\w+")
# Lowers \w bytes and spaces all others: ASCII \w is [A-Za-z0-9_] and all that split() takes
# for whitespace is outside it, so on ASCII text translate, then split(), is _TOKEN.findall.
_ASCII_WORDS = bytes(ord(c.lower()) if _TOKEN.match(c) else 32 for c in map(chr, range(256)))
INDEX_DTYPE = "postings-int32-float64-le"  # the layout of postings.bin, named in meta.json


class KnowledgeBaseError(Exception):
    pass


class Chunk(NamedTuple):
    doc_id: str
    seq: int
    text: str


class IndexMeta(NamedTuple):
    """The fields of an index's meta.json that a load checks."""

    dimension: int
    dtype: str
    count: int
    embedder_id: str = EMBEDDER_ID


class Excerpt(NamedTuple):
    chunk: Chunk
    similarity: float


class _Buckets(dict):
    """token -> bucket, by sha1 of its UTF-8 bytes: stable across processes, unlike hash()."""

    def __missing__(self, token: str | bytes) -> int:
        if len(self) >= BUCKET_MAP_SIZE:
            self.clear()
        digest = hashlib.sha1(token.encode("utf-8") if type(token) is str else token).digest()
        bucket = self[token] = int.from_bytes(digest[:8], "little") % EMBED_DIM
        return bucket


_BUCKETS = _Buckets()


def embed(text: str) -> dict[int, float]:
    """Deterministic L2-normalized hashed term-frequency embedding, as {bucket: entry}.

    Only the buckets a token hits are counted, and only they are returned:
    every other entry of the EMBED_DIM-wide vector is +0.0.
    """
    if not text:
        raise ValueError("cannot embed empty text")
    return dict(next(_window_entries(text, [0], len(text))))


def _window_entries(document: str, starts: range | list[int], size: int):
    """For each window ``document[s : s + size]``, its embedding's (bucket, count / norm) pairs.

    Tokens are the \\w+ runs of the lowered window, or all of it if it has none. The squared
    norm is an integer sum; under 2**27 characters it is below 2**53, so float sums agree.
    """
    if document.isascii():  # an ASCII window without a word has no letter to lower
        data = document.encode("ascii")
        words = data.translate(_ASCII_WORDS)
        windows = (words[s : s + size].split() or [data[s : s + size]] for s in starts)
    else:  # lower() can change the length of other text, so each window is lowered alone
        lowered = (document[s : s + size].lower() for s in starts)
        windows = (_TOKEN.findall(text) or [text] for text in lowered)
    for tokens in windows:
        counts = Counter(map(_BUCKETS.__getitem__, tokens))
        norm = math.sqrt(sum(map(mul, counts.values(), counts.values())))
        yield zip(counts.keys(), map(truediv, counts.values(), repeat(norm)))


def _little_endian(part: array) -> array:
    """``part`` in the byte order of postings.bin: on a big-endian host, a byte-swapped copy."""
    if sys.byteorder == "big":
        part = array(part.typecode, part)
        part.byteswap()
    return part


class KnowledgeBase:
    """In-memory chunk index with exact cosine retrieval and disk persistence."""

    def __init__(self):
        self._chunks: list[Chunk] = []
        # _rows[b]: the rows nonzero in bucket b, ascending; _weights[b]: their entries
        self._rows = [array("I") for _ in range(EMBED_DIM)]
        self._weights = [array("d") for _ in range(EMBED_DIM)]
        self._doc_ids: set[str] = set()  # every doc_id with chunks, perhaps more
        self._lock = threading.Lock()  # guards all four; no change while retrieve reads

    def __len__(self) -> int:
        return len(self._chunks)

    def ingest(self, document: str, doc_id: str, chunk_size: int = DEFAULT_CHUNK_SIZE,
               overlap: int = DEFAULT_OVERLAP) -> int:
        """Split, embed and index one document; returns the chunk count.

        Windows are chunk_size characters sliding by chunk_size - overlap.
        Re-ingesting a doc_id replaces its previous chunks; the index is
        scanned for them only when the doc_id is in ``_doc_ids``, so a run of
        new documents ingests in time linear in their number.
        """
        if overlap < 0 or chunk_size <= overlap:
            raise ValueError("require chunk_size > overlap >= 0")
        if not document:
            import logging  # here, not at the top: a process that never warns skips it

            logging.getLogger(__name__).warning("ingest(%s): empty document, nothing indexed",
                                                doc_id)
        starts = range(0, len(document), chunk_size - overlap)
        new_chunks = [Chunk(doc_id=doc_id, seq=seq, text=document[start : start + chunk_size])
                      for seq, start in enumerate(starts)]
        with self._lock:
            chunks = self._chunks + new_chunks  # a new list: retrieve may hold the old one
            if doc_id in self._doc_ids:
                gone = [c.doc_id == doc_id for c in self._chunks]
                renumbered = list(accumulate(map(not_, gone), initial=0))  # kept rows before r
                for b, (rows, weights) in enumerate(zip(self._rows, self._weights)):
                    kept = list(map(not_, map(gone.__getitem__, rows)))
                    self._rows[b] = array("I", map(renumbered.__getitem__, compress(rows, kept)))
                    self._weights[b] = array("d", compress(weights, kept))
                chunks = [c for c, g in zip(self._chunks, gone) if not g] + new_chunks
            self._doc_ids.add(doc_id)
            rows, weights, first = self._rows, self._weights, len(chunks) - len(new_chunks)
            for r, entries in enumerate(_window_entries(document, starts, chunk_size), first):
                for b, w in entries:
                    rows[b].append(r)
                    weights[b].append(w)
            self._chunks = chunks
        return len(new_chunks)

    def retrieve(self, query: str, k: int) -> list[Excerpt]:
        """The k most cosine-similar chunks, ties broken by (doc_id, seq).

        Scores fold in the postings of each nonzero query bucket, ascending,
        from 0.0. Each skipped term is x * 0.0, and adding an exact zero leaves
        a float sum unchanged, so similarities equal the tests' cosine() exactly.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query_vec = sorted(embed(query).items())
        with self._lock:
            chunks = self._chunks
            if not chunks:
                raise KnowledgeBaseError("knowledge base is empty; "
                                         "ingest documents before retrieving")
            scores = [0.0] * len(chunks)
            for bucket, x in query_vec:
                for r, w in zip(self._rows[bucket], self._weights[bucket]):
                    scores[r] += x * w
        # Only chunks scoring at least the k-th largest score can be returned.
        top = compress(range(len(scores)), map(ge, scores, repeat(heapq.nlargest(k, scores)[-1])))
        ranked = sorted((-scores[i], chunks[i].doc_id, chunks[i].seq, i) for i in top)
        return [Excerpt(chunks[i], -neg) for neg, _, _, i in ranked[:k]]

    # -- persistence --------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write chunks.jsonl, postings.bin and meta.json."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            chunks = self._chunks
            parts = [array("I", map(len, self._rows)), *self._rows, *self._weights]
            postings = b"".join(_little_endian(part).tobytes() for part in parts)
        (directory / "postings.bin").write_bytes(postings)
        with open(directory / "chunks.jsonl", "w", encoding="utf-8") as fh:
            for c in chunks:
                fh.write(json_text(encode(c)) + "\n")
        meta = IndexMeta(EMBED_DIM, INDEX_DTYPE, len(chunks))._asdict()
        (directory / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")

    @classmethod
    def load(cls, directory: str | Path) -> "KnowledgeBase":
        """Read an index saved by ``save``.

        An index whose meta.json names another dimension, layout or embedder,
        or whose postings.bin does not fit its chunks, raises
        KnowledgeBaseError. Files that do not decode raise OSError, KeyError
        or ValueError.
        """
        directory = Path(directory)
        meta = load_json((directory / "meta.json").read_text(encoding="utf-8"),
                         partial(decode, IndexMeta))
        for field, found, wanted in zip(IndexMeta._fields, meta,
                                        IndexMeta(EMBED_DIM, INDEX_DTYPE, meta.count)):
            if found != wanted:  # an index of another version: a new ingest rebuilds it
                raise KnowledgeBaseError(f"index {field} {found!r} is not {wanted!r}; re-run "
                                         "`penheal ingest` on its documents into a new directory")
        decode_chunk = partial(decode, Chunk)
        with open(directory / "chunks.jsonl", encoding="utf-8") as fh:
            chunks = [load_json(line, decode_chunk) for line in fh if line.strip()]
        if len(chunks) != meta.count:
            raise KnowledgeBaseError(f"chunks.jsonl has {len(chunks)} chunks, not {meta.count}")
        data = (directory / "postings.bin").read_bytes()
        # Read unsigned, a negative int32 count or row id is 2**31 or more and fails the bound.
        head = 4 * EMBED_DIM
        counts = _little_endian(array("I", data[:head] if len(data) >= head else b""))
        if len(data) != head + 12 * sum(counts):
            raise KnowledgeBaseError(f"postings.bin has {len(data)} bytes, not {head} plus 12 "
                                     "per posting it counts")
        split = head + 4 * sum(counts)
        rows = _little_endian(array("I", data[head:split]))
        if max(rows, default=-1) >= len(chunks):
            raise KnowledgeBaseError(f"postings.bin has a row id outside 0..{len(chunks) - 1}")
        weights = _little_endian(array("d", data[split:]))
        bounds = list(pairwise(accumulate(counts, initial=0)))
        kb = cls()
        kb._rows = [rows[a:b] for a, b in bounds]
        kb._weights = [weights[a:b] for a, b in bounds]
        kb._chunks = chunks
        kb._doc_ids = {c.doc_id for c in chunks}
        return kb


def build_instructor_prompt(task_description: str, excerpts: list[Excerpt]) -> str:
    """Assemble the guidance message fed to the executor for one task."""
    numbered = "\n".join(f"{i}. {e.chunk.text}" for i, e in enumerate(excerpts, start=1))
    return render_prompt(AgentRole.EXECUTOR, {"task": task_description, "excerpts": numbered},
                         kind="instructor")
