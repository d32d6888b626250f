"""External knowledge base backing the instructor.

Reference documents are split into overlapping character windows, embedded,
and found by exact cosine retrieval over sparse hashed-TF vectors. The
default embedder is a deterministic hashed term-frequency vector so runs are
hermetic; a semantic embedder can be plugged in behind the same callable
interface. The index keeps the nonzero buckets of the dense embeddings.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import logging
import math
import re
import struct
import threading
from dataclasses import dataclass, field
from itertools import compress
from operator import mul
from pathlib import Path
from typing import Callable, Optional

from .gateway import AgentRole
from .prompts import render_prompt

logger = logging.getLogger(__name__)

EMBED_DIM = 512
DEFAULT_CHUNK_SIZE = 800
DEFAULT_OVERLAP = 200
DEFAULT_EMBEDDER_ID = f"hashed-tf-{EMBED_DIM}"

_TOKEN = re.compile(r"\w+")


class KnowledgeBaseError(Exception):
    pass


@dataclass(frozen=True)
class Chunk:
    doc_id: str
    seq: int
    text: str
    # The embedding as {bucket: weight}, ascending, without zero entries. Left
    # out of == and hash: it follows from text, and a dict cannot be hashed.
    weights: dict[int, float] = field(compare=False, repr=False)


@dataclass(frozen=True)
class Excerpt:
    chunk: Chunk
    similarity: float


@functools.lru_cache(maxsize=1 << 16)
def _bucket(token: str) -> int:
    # Stable across processes, unlike hash().
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % EMBED_DIM


def embed(text: str) -> tuple[float, ...]:
    """Deterministic L2-normalized hashed term-frequency embedding."""
    if not text:
        raise ValueError("cannot embed empty text")
    tokens = _TOKEN.findall(text.lower())
    if not tokens:
        tokens = [text.lower()]
    counts = [0.0] * EMBED_DIM
    for token in tokens:
        counts[_bucket(token)] += 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    return tuple(c / norm for c in counts)


def cosine(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    # Vectors are unit length, so the dot product is the cosine.
    return sum(x * y for x, y in zip(a, b))


def _pack(vector) -> bytes:
    return struct.pack(f"<{len(vector)}d", *vector)


def _sparse(vector) -> dict[int, float]:
    """{bucket: weight} for the nonzero entries of a dense vector."""
    return dict(compress(enumerate(vector), vector))


class KnowledgeBase:
    """In-memory chunk index with exact cosine retrieval and disk persistence."""

    def __init__(self, embedder: Optional[Callable[[str], tuple[float, ...]]] = None,
                 embedder_id: str = DEFAULT_EMBEDDER_ID):
        self.embedder = embedder or embed
        self.embedder_id = embedder_id
        self._chunks: list[Chunk] = []
        self._lock = threading.Lock()

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
        Re-ingesting a doc_id replaces its previous chunks.
        """
        if overlap < 0 or chunk_size <= overlap:
            raise ValueError("require chunk_size > overlap >= 0")
        if not document:
            logger.warning("ingest(%s): empty document, nothing indexed", doc_id)
        step = chunk_size - overlap
        new_chunks = []
        for seq, start in enumerate(range(0, len(document), step)):
            piece = document[start : start + chunk_size]
            weights = _sparse(self.embedder(piece))
            new_chunks.append(Chunk(doc_id=doc_id, seq=seq, text=piece, weights=weights))
        with self._lock:
            self._chunks = [c for c in self._chunks if c.doc_id != doc_id] + new_chunks
        return len(new_chunks)

    def retrieve(self, query: str, k: int) -> list[Excerpt]:
        """The k most cosine-similar chunks, ties broken by (doc_id, seq).

        Chunks are scored over the query's nonzero buckets, ascending. Each
        skipped term is x * 0.0, and adding an exact zero leaves a float sum
        unchanged, so similarities equal cosine() of the dense vectors exactly.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        chunks = self._chunks
        if not chunks:
            raise KnowledgeBaseError(
                "knowledge base is empty; ingest documents before retrieving"
            )
        query_weights = _sparse(self.embedder(query))
        buckets, weights = tuple(query_weights), tuple(query_weights.values())
        absent = (0.0,) * len(buckets)
        scored = [
            (-sum(map(mul, map(c.weights.get, buckets, absent), weights), 0.0), c.doc_id, c.seq, i)
            for i, c in enumerate(chunks)
        ]
        return [Excerpt(chunks[i], -neg) for neg, _, _, i in heapq.nsmallest(k, scored)]

    # -- persistence --------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "chunks.jsonl", "w", encoding="utf-8") as fh:
            for c in self._chunks:
                fh.write(
                    json.dumps(
                        {"doc_id": c.doc_id, "seq": c.seq, "text": c.text},
                        ensure_ascii=False,
                    )
                    + "\n"
                )
        with open(directory / "vectors.bin", "wb") as fh:
            for c in self._chunks:
                dense = [0.0] * EMBED_DIM
                for bucket, weight in c.weights.items():
                    dense[bucket] = weight
                fh.write(_pack(dense))
        meta = {
            "dimension": EMBED_DIM,
            "embedder_id": self.embedder_id,
            "dtype": "float64-le",
            "count": len(self._chunks),
        }
        (directory / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")

    @classmethod
    def load(cls, directory: str | Path) -> "KnowledgeBase":
        directory = Path(directory)
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
        if meta["dimension"] != EMBED_DIM:
            raise KnowledgeBaseError(
                f"index dimension {meta['dimension']} does not match embedder ({EMBED_DIM})"
            )
        kb = cls(embedder_id=meta.get("embedder_id", DEFAULT_EMBEDDER_ID))
        rows = []
        with open(directory / "chunks.jsonl", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
        raw = (directory / "vectors.bin").read_bytes()
        row_bytes = EMBED_DIM * 8
        expected = len(rows) * row_bytes
        if len(raw) != expected:
            raise KnowledgeBaseError(
                f"vectors.bin has {len(raw)} bytes, expected {expected}"
            )
        kb._chunks = [
            Chunk(doc_id=row["doc_id"], seq=row["seq"], text=row["text"], weights=_sparse(vector))
            for row, vector in zip(rows, struct.iter_unpack(f"<{EMBED_DIM}d", raw))
        ]
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
