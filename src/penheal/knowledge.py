"""External knowledge base backing the instructor.

Reference documents are split into overlapping character windows, embedded,
and found by exact cosine retrieval. There is one embedder, a deterministic
hashed term-frequency vector (``embed``), so runs are hermetic and an index
built in one process answers queries in another. All embeddings form one
row-major float64 matrix laid out as vectors.bin, written and read as a block.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import math
import os
import re
import struct
import sys
import threading
from array import array
from collections import Counter
from functools import partial
from itertools import compress, repeat
from operator import add, ge, mul
from pathlib import Path
from typing import NamedTuple

from .gateway import AgentRole
from .model import decode, encode, json_text, load_json
from .prompts import render_prompt

EMBED_DIM = 512
DEFAULT_CHUNK_SIZE = 800
DEFAULT_OVERLAP = 200
EMBEDDER_ID = f"hashed-tf-{EMBED_DIM}"

_TOKEN = re.compile(r"\w+")
# Each ASCII character outside \w is a space: on ASCII text \w is [A-Za-z0-9_] and all that
# split() takes for whitespace is outside it, so translate, then split(), is _TOKEN.findall.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not _TOKEN.match(c)})
_ROW = struct.Struct(f"={EMBED_DIM}d")  # native order, as array("d") holds it


class KnowledgeBaseError(Exception):
    pass


class Chunk(NamedTuple):
    doc_id: str
    seq: int
    text: str


class IndexMeta(NamedTuple):
    """The fields of an index's meta.json that a load checks."""

    dimension: int
    embedder_id: str = EMBEDDER_ID


class Excerpt(NamedTuple):
    chunk: Chunk
    similarity: float


@functools.lru_cache(maxsize=1 << 16)
def _bucket(token: str) -> int:
    # Stable across processes, unlike hash().
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % EMBED_DIM


def embed(text: str) -> tuple[float, ...]:
    """Deterministic L2-normalized hashed term-frequency embedding.

    Only the buckets a token hits are counted. The squared norm is an integer
    sum; for text under 2**27 characters it is below 2**53, so it is also
    exactly what a float sum over all EMBED_DIM counts gives, in any order.
    Each entry is ``count / norm``, which equals ``float(count) / norm``, or
    +0.0 for a bucket no token hits.
    """
    if not text:
        raise ValueError("cannot embed empty text")
    lowered = text.lower()
    # translate is fast only on all-ASCII text; one other character makes it slower than findall.
    tokens = (lowered.translate(_ASCII_SEPARATORS).split() if lowered.isascii()
              else _TOKEN.findall(lowered))
    counts = Counter(map(_bucket, tokens or [lowered]))
    norm = math.sqrt(sum(map(mul, counts.values(), counts.values())))
    vector = [0.0] * EMBED_DIM
    for bucket, count in counts.items():
        vector[bucket] = count / norm
    return tuple(vector)


class KnowledgeBase:
    """In-memory chunk index with exact cosine retrieval and disk persistence."""

    def __init__(self):
        self._chunks: list[Chunk] = []
        self._vectors = array("d")  # row i, EMBED_DIM entries, embeds _chunks[i]
        self._doc_ids: set[str] = set()  # every doc_id with chunks, perhaps more
        self._lock = threading.Lock()  # guards all three; no resize while retrieve reads

    def __len__(self) -> int:
        return len(self._chunks)

    def ingest(
        self,
        document: str,
        doc_id: str,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        overlap: int = DEFAULT_OVERLAP,
    ) -> int:
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

            logging.getLogger(__name__).warning(
                "ingest(%s): empty document, nothing indexed", doc_id
            )
        step = chunk_size - overlap
        new_chunks = [
            Chunk(doc_id=doc_id, seq=seq, text=document[start : start + chunk_size])
            for seq, start in enumerate(range(0, len(document), step))
        ]
        rows = array("d")
        for c in new_chunks:
            rows.frombytes(_ROW.pack(*embed(c.text)))
        with self._lock:
            chunks = self._chunks + new_chunks  # a new list: retrieve may hold the old one
            if doc_id in self._doc_ids:
                for i in reversed([i for i, c in enumerate(self._chunks) if c.doc_id == doc_id]):
                    del self._vectors[i * EMBED_DIM : (i + 1) * EMBED_DIM]
                    del chunks[i]
            self._doc_ids.add(doc_id)
            self._vectors.extend(rows)
            self._chunks = chunks
        return len(new_chunks)

    def retrieve(self, query: str, k: int) -> list[Excerpt]:
        """The k most cosine-similar chunks, ties broken by (doc_id, seq).

        Scores fold in the matrix column of each nonzero query bucket,
        ascending, from 0.0. Each skipped term is x * 0.0, and adding an exact
        zero leaves a float sum unchanged, so similarities equal the tests' cosine() exactly.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query_vec = embed(query)
        with self._lock:
            chunks = self._chunks
            if not chunks:
                raise KnowledgeBaseError(
                    "knowledge base is empty; ingest documents before retrieving"
                )
            n = len(chunks)
            scores = [0.0] * n
            with memoryview(self._vectors) as matrix:
                for bucket in compress(range(EMBED_DIM), query_vec):
                    with matrix[bucket::EMBED_DIM] as column:
                        terms = map(mul, column, repeat(query_vec[bucket], n))
                        scores = list(map(add, scores, terms))
        # Only chunks scoring at least the k-th largest score can be returned.
        top = compress(range(n), map(ge, scores, repeat(heapq.nlargest(k, scores)[-1])))
        ranked = sorted((-scores[i], chunks[i].doc_id, chunks[i].seq, i) for i in top)
        return [Excerpt(chunks[i], -neg) for neg, _, _, i in ranked[:k]]

    # -- persistence --------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write chunks.jsonl, vectors.bin (float64 little-endian rows) and meta.json."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            chunks, vectors = self._chunks, self._vectors
            if sys.byteorder == "big":  # vectors.bin is little-endian
                vectors = array("d", vectors)
                vectors.byteswap()
            with open(directory / "vectors.bin", "wb") as fh:
                vectors.tofile(fh)
        with open(directory / "chunks.jsonl", "w", encoding="utf-8") as fh:
            for c in chunks:
                fh.write(json_text(encode(c)) + "\n")
        meta = {
            "dimension": EMBED_DIM,
            "embedder_id": EMBEDDER_ID,
            "dtype": "float64-le",
            "count": len(chunks),
        }
        (directory / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")

    @classmethod
    def load(cls, directory: str | Path) -> "KnowledgeBase":
        """Read an index saved by ``save``.

        An index whose meta.json names another dimension or embedder raises
        KnowledgeBaseError. Files that do not decode raise OSError, KeyError
        or ValueError.
        """
        directory = Path(directory)
        meta = load_json((directory / "meta.json").read_text(encoding="utf-8"),
                         partial(decode, IndexMeta))
        if meta.dimension != EMBED_DIM:
            raise KnowledgeBaseError(
                f"index dimension {meta.dimension} does not match embedder ({EMBED_DIM})"
            )
        if meta.embedder_id != EMBEDDER_ID:
            raise KnowledgeBaseError(
                f"index was built with embedder {meta.embedder_id!r}, not {EMBEDDER_ID!r}"
            )
        kb = cls()
        decode_chunk = partial(decode, Chunk)
        with open(directory / "chunks.jsonl", encoding="utf-8") as fh:
            chunks = [load_json(line, decode_chunk) for line in fh if line.strip()]
        kb._vectors = array("d", [0.0]) * (len(chunks) * EMBED_DIM)
        expected = len(kb._vectors) * kb._vectors.itemsize
        with open(directory / "vectors.bin", "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expected or fh.readinto(kb._vectors) != size:
                raise KnowledgeBaseError(f"vectors.bin has {size} bytes, expected {expected}")
        if sys.byteorder == "big":
            kb._vectors.byteswap()
        kb._chunks = chunks
        kb._doc_ids = {c.doc_id for c in chunks}
        return kb


def build_instructor_prompt(task_description: str, excerpts: list[Excerpt]) -> str:
    """Assemble the guidance message fed to the executor for one task."""
    numbered = "\n".join(
        f"{i}. {e.chunk.text}" for i, e in enumerate(excerpts, start=1)
    )
    return render_prompt(
        AgentRole.EXECUTOR,
        {"task": task_description, "excerpts": numbered},
        kind="instructor",
    )
