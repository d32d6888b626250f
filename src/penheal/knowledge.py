"""External knowledge base backing the instructor.

Reference documents are split into overlapping character windows, embedded,
and found by exact cosine retrieval. There is one embedder, deterministic
hashed term counts (``_window_counts``: a window's tokens counted by sha1
bucket, its vector those counts over their L2 norm), so runs are hermetic and
an index built in one process answers queries in another. The index holds the
counts bucket-major as postings (per bucket, the ascending rows nonzero there
and their counts); ``_norms`` sums a row's squared norm from them. ``save`` and
``load`` keep an index in a directory, in the layout :mod:`penheal.index_files`
gives; a run that neither saves nor loads one imports none of that code.

retrieve ranks rows by exact cosine, in integers. A row's key is its dot
product with the query's counts times its scale floor(2**KEY_BITS / norm),
which is 1 or more: lower() at most doubles a window, so ingest's bound
chunk_size <= 2**(KEY_BITS - 1) and load's on squared norms keep every squared
norm C at most 2**(2 * KEY_BITS). A bucket every row has adds its counts times
the scales as one big int of 32-bit lanes, one per row, and the others add
theirs posting by posting; a key is at most sqrt(Q) * 2**KEY_BITS for the
query's squared norm Q, so no lane carries while Q is below 2**(2 * (32 -
KEY_BITS)). key / 2**KEY_BITS lies between dot / norm and that times 1 - norm
/ 2**KEY_BITS, so a row whose key is below the k-th largest times 1 - mu, mu =
2 * max norm / 2**KEY_BITS + 1e-9, has a dot / norm below each of the k rows
of largest keys. The others are the candidates: the rows of those k keys,
found by index from heapq.nlargest(k + 1), unless the (k + 1)-th key is also
at or above that bound and all rows are compared with it. A candidate's dot
product is key // scale. Candidates rank by floor(dot**2 * 2**(4 * KEY_BITS) /
C), exact since two unequal dot**2 / C differ by at least 2**(-4 * KEY_BITS),
then by (doc_id, seq). A similarity is sqrt(dot**2 / (C * Q)), each step
correctly rounded, so it never rises down the ranking and exact ties report
the same float. The squared norms, scales and every-row lane ints are built on
first use and kept until the next ingest, which may add or renumber rows.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import re
import sys
from array import array
from collections import Counter
from itertools import accumulate, compress, repeat
from operator import ge, mul, not_
from pathlib import Path

from .model import Record

EMBED_DIM = 512
DEFAULT_CHUNK_SIZE = 800
DEFAULT_OVERLAP = 200
EMBEDDER_ID = f"hashed-tf-{EMBED_DIM}"
BUCKET_MAP_SIZE = 1 << 16  # the token -> bucket map is emptied when it holds this many
MARGIN = 1e-9  # mu's part for the float rounding of the candidates' bound
KEY_BITS = 26  # a row's key is its dot product times floor(2**KEY_BITS / norm)

_TOKEN = r"\w+"  # compiled on first use, by re's cache: only text that is not ASCII needs it
# Lowers \w bytes (alphanumerics and _) and spaces all others: ASCII \w is [A-Za-z0-9_] and all
# that split() takes for whitespace is outside it, so on ASCII text this is re.findall(_TOKEN).
_ASCII_WORDS = bytes(ord(c.lower()) if c.isalnum() or c == "_" else 32
                     for c in map(chr, range(256)))


class KnowledgeBaseError(ValueError):
    """An index that cannot be used: empty, damaged or of another layout."""


class Chunk(Record):
    doc_id: str
    seq: int
    text: str


class Excerpt(Record):
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


def _text_counts(text: str) -> Counter:
    if not text:
        raise ValueError("cannot embed empty text")
    return next(_window_counts(text, [0], len(text)))


def _window_counts(document: str, starts: range | list[int], size: int):
    """For each window ``document[s : s + size]``, its {bucket: count} as a Counter.

    Tokens are the \\w+ runs of the lowered window, or all of it if it has none.
    Ingest and retrieve count every text through here.
    """
    if document.isascii():  # an ASCII window without a word has no letter to lower
        data = document.encode("ascii")
        words = data.translate(_ASCII_WORDS)
        windows = (words[s : s + size].split() or [data[s : s + size]] for s in starts)
    else:  # lower() can change the length of other text, so each window is lowered alone
        lowered = (document[s : s + size].lower() for s in starts)
        windows = (re.findall(_TOKEN, text) or [text] for text in lowered)
    for tokens in windows:
        yield Counter(map(_BUCKETS.__getitem__, tokens))


class KnowledgeBase:
    """In-memory chunk index with exact cosine retrieval and disk persistence, for one thread."""

    def __init__(self):
        self._chunks: list[Chunk] = []
        # _rows[b]: the rows nonzero in bucket b, ascending; _counts[b]: their term counts
        self._rows = [array("I") for _ in range(EMBED_DIM)]
        self._counts = [array("I") for _ in range(EMBED_DIM)]
        self._squares: list[int] = []  # per row, its squared norm; see _norms
        self._doc_ids: set[str] = set()  # every doc_id with chunks, perhaps more
        self._scales: list[int] = []  # per row, floor(2**KEY_BITS / norm); see _keys
        self._margin = MARGIN  # mu of the module docstring, set with _scales
        self._lanes: dict[int, int] = {}  # an every-row bucket's keyed counts as one int

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
        if chunk_size > 1 << KEY_BITS - 1:  # so no squared norm is above 2**(2 * KEY_BITS)
            raise ValueError(f"chunk_size must be at most {1 << KEY_BITS - 1}")
        starts = range(0, len(document), chunk_size - overlap)
        new_chunks = [Chunk(doc_id=doc_id, seq=seq, text=document[start : start + chunk_size])
                      for seq, start in enumerate(starts)]
        if doc_id in self._doc_ids:
            gone = [c.doc_id == doc_id for c in self._chunks]
            kept_rows = list(map(not_, gone))
            renumbered = list(accumulate(kept_rows, initial=0))  # kept rows before r
            for b, (rows, counts) in enumerate(zip(self._rows, self._counts)):
                kept = list(map(not_, map(gone.__getitem__, rows)))
                self._rows[b] = array("I", map(renumbered.__getitem__, compress(rows, kept)))
                self._counts[b] = array("I", compress(counts, kept))
            self._chunks = list(compress(self._chunks, kept_rows))
        self._doc_ids.add(doc_id)
        self._lanes.clear()
        self._squares, self._scales = [], []
        rows, counts = self._rows, self._counts
        windows = _window_counts(document, starts, chunk_size)
        for r, window in enumerate(windows, len(self._chunks)):
            for b, c in window.items():
                rows[b].append(r)
                counts[b].append(c)
        self._chunks += new_chunks
        return len(new_chunks)

    def retrieve(self, query: str, k: int) -> list[Excerpt]:
        """The k most cosine-similar chunks, ties broken by (doc_id, seq).

        Candidates are chosen by integer keys and ranked by exact cosine;
        see the module docstring.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        counts = _text_counts(query)
        query_square = sum(map(mul, counts.values(), counts.values()))
        chunks = self._chunks
        if not chunks:
            raise KnowledgeBaseError("knowledge base is empty; "
                                     "ingest documents before retrieving")
        terms = sorted((b, q) for b, q in counts.items() if self._rows[b])  # ascending
        keys = self._keys(terms, query_square < 1 << 2 * (32 - KEY_BITS))
        top = heapq.nlargest(k + 1, keys)
        floor = top[:k][-1] * (1 - self._margin)
        if top[-1] >= floor:  # a near tie with the k-th key, or k >= len(chunks)
            candidates = compress(range(len(chunks)), map(ge, keys, repeat(floor)))
        else:  # the rows of the k largest keys; equal keys are found left to right
            candidates, r = [], -1
            for before, key in zip([None, *top], top[:k]):
                r = keys.index(key, r + 1 if key == before else 0)
                candidates.append(r)
        squares, scales, shift = self._norms(), self._scales, 4 * KEY_BITS
        dots = {r: keys[r] // scales[r] for r in candidates}
        # a chunk compares by (doc_id, seq) first, and no two chunks share them
        ranked = sorted(dots, key=lambda r: (-(dots[r] ** 2 << shift) // squares[r], chunks[r]))
        return [Excerpt(chunks[r], math.sqrt(dots[r] ** 2 / (squares[r] * query_square)))
                for r in ranked[:k]]

    def _keys(self, terms: list[tuple[int, int]], lanes: bool) -> list[int]:
        """Every row's key for the query counts ``terms``, packing into 32-bit lanes the
        buckets every row has when ``lanes`` says no lane can overflow."""
        if not self._scales:  # exact: floor(sqrt(floor(x))) is floor(sqrt(x))
            self._scales = [math.isqrt((1 << 2 * KEY_BITS) // s) for s in self._norms()]
            self._margin = 2 * math.sqrt(max(self._norms())) / (1 << KEY_BITS) + MARGIN
        n, rows, counts, scales = len(self._chunks), self._rows, self._counts, self._scales
        packed, scattered = 0, []
        for b, q in terms:
            if lanes and len(rows[b]) == n:  # ascending and distinct, so rows 0..n-1
                if (lane := self._lanes.get(b)) is None:
                    keyed = array("I", map(mul, counts[b], scales))  # each at most 2**KEY_BITS
                    lane = self._lanes[b] = int.from_bytes(keyed, sys.byteorder)
                packed += q * lane
            else:
                scattered.append((q, rows[b], counts[b]))
        keys = array("I", packed.to_bytes(4 * n, sys.byteorder)).tolist()
        for q, bucket_rows, bucket_counts in scattered:
            for r, c in zip(bucket_rows, bucket_counts):
                keys[r] += q * c * scales[r]
        return keys

    def _norms(self) -> list[int]:
        """Per row, its squared norm: its squared counts, summed on first use after an ingest."""
        if not self._squares:
            squares = self._squares = [0] * len(self._chunks)
            for rows, counts in zip(self._rows, self._counts):
                for r, c in zip(rows, counts):
                    squares[r] += c * c
        return self._squares

    # -- persistence: the code is imported on the first call ---------------

    def save(self, directory: str | Path) -> None:
        """Write postings.bin, texts.bin and meta.json; see :mod:`penheal.index_files`."""
        from .index_files import save

        save(self, directory)

    @classmethod
    def load(cls, directory: str | Path) -> "KnowledgeBase":
        """Read an index saved by ``save``; ``index_files.load`` says what it rejects."""
        from .index_files import load

        return load(cls, directory)
