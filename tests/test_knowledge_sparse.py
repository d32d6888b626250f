"""Sparse embedding and retrieval against references: exact vectors, exact cosine ranking, bytes."""

import hashlib
import json
import math
import random
import re
import struct
from collections import Counter
from fractions import Fraction
from importlib import resources
from itertools import repeat
from operator import mul, truediv

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from penheal import knowledge
from penheal.knowledge import (
    BUCKET_MAP_SIZE,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_OVERLAP,
    EMBED_DIM,
    KnowledgeBase,
    _ASCII_WORDS,
)

VOCAB = ["samba", "usermap", "exploit", "nmap", "scan", "port", "ftp", "backdoor", "dns"]


def dense(vector: dict[int, float]) -> tuple[float, ...]:
    """The EMBED_DIM-wide vector of an embedding's or a count's {bucket: entry}, checked to hold
    no zero entry."""
    assert all(type(b) is int and 0 <= b < EMBED_DIM and w for b, w in vector.items()), vector
    zero = 0 if all(type(w) is int for w in vector.values()) else 0.0
    return tuple(map(vector.get, range(EMBED_DIM), repeat(zero)))


def reference_bucket(token: str) -> int:
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % EMBED_DIM


def reference_counts(text: str) -> dict[int, int]:
    """Reference for the index's term counts: every \\w+ token of the lowered text (or all of
    it, if it has none) counted in its sha1 bucket."""
    return dict(Counter(map(reference_bucket, re.findall(r"\w+", text.lower()) or [text.lower()])))


def dense_counts(text: str) -> dict[int, int]:
    """A dense count embedder patched in for the index's: every token adds a fixed row of 1..4
    to all buckets, so every bucket holds every chunk."""
    counts = [0] * EMBED_DIM
    for token in text.lower().split() or [text]:
        row = random.Random(token)
        for i in range(EMBED_DIM):
            counts[i] += row.randint(1, 4)
    return dict(enumerate(counts))


def use_embedder(patch: pytest.MonkeyPatch, counter) -> None:
    """Make ingest, retrieve and embed count terms with ``counter``.

    All three count through _window_counts, their one seam, here given each
    window's ``counter`` counts. reference_counts is the seam's own, so it
    patches nothing.
    """
    if counter is not reference_counts:
        patch.setattr(knowledge, "_window_counts", lambda document, starts, size: (
            counter(document[s : s + size]) for s in starts))


def embed(text: str) -> dict[int, float]:
    """The L2-normalized hashed term-frequency embedding the index holds, as {bucket: entry}:
    the text's counts from the index's own counting seam over their L2 norm. Only the buckets a
    token hits are returned: every other entry of the EMBED_DIM-wide vector is +0.0."""
    counts = knowledge._text_counts(text)
    norm = math.sqrt(sum(map(mul, counts.values(), counts.values())))
    return {b: c / norm for b, c in counts.items()}


def dense_fold_embed(text: str) -> tuple[float, ...]:
    """Reference for embed: count every token into all EMBED_DIM float buckets, then divide."""
    tokens = re.findall(r"\w+", text.lower()) or [text.lower()]
    counts = [0.0] * EMBED_DIM
    for token in tokens:
        counts[reference_bucket(token)] += 1.0
    norm = math.sqrt(sum(map(mul, counts, counts)))
    return tuple(map(truediv, counts, repeat(norm)))


ascii_text = st.text(alphabet="".join(map(chr, range(128))), min_size=1)
no_word_text = st.text(alphabet=" \t\n!?.,;:-+*/$#@()[]{}<>\"'|\\~^%&=", min_size=1)
repeated_token = st.builds(lambda token, n, sep: sep.join([token] * n),
                           st.sampled_from(VOCAB + ["İ", "x"]), st.integers(1000, 6000),
                           st.sampled_from([" ", "\n", "--"]))


class TestEmbedEqualsDenseFold:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.text(min_size=1), ascii_text, no_word_text, repeated_token))
    @example("İ")
    @example("ΣΑΣ")
    @example("Straße STRASSE ǅ ﬁ")
    @example("a_b-c9")
    @example("x\x1fy\x0b\x0cz")
    @example("\u212a")  # Kelvin sign: not ASCII, but its lowercase "k" is
    @example("tab\tsep\u2014dash")  # one em dash: the regex tokenizes it
    def test_bit_identical(self, text):
        assert [x.hex() for x in dense(embed(text))] == [x.hex() for x in dense_fold_embed(text)]


class TestAsciiTokens:
    """On ASCII text the tokens are the words of a translate by _ASCII_WORDS: the regex's, lowered."""

    def test_table_spaces_exactly_the_non_word_characters(self):
        for c in map(chr, range(128)):
            word = re.fullmatch(r"\w", c)
            assert c.encode().translate(_ASCII_WORDS) == (c.lower() if word else " ").encode(), c

    @settings(max_examples=300, deadline=None)
    @given(ascii_text)
    @example("a_b-c9")
    @example("x\x1fy\x0b\x0cz")
    @example("__ 0_9\x7f\x00Z")
    @example("Mixed CASE_Words 42")
    def test_tokens_equal_findall(self, text):
        tokens = text.encode("ascii").translate(_ASCII_WORDS).split()
        assert tokens == [t.encode("ascii") for t in re.findall(r"\w+", text.lower())]


class TestBucketMap:
    def test_overflow_keeps_the_bound_and_the_buckets(self, monkeypatch):
        buckets = knowledge._Buckets()
        monkeypatch.setattr(knowledge, "_BUCKETS", buckets)
        full = " ".join(f"t{i}" for i in range(BUCKET_MAP_SIZE))
        texts = [full, "t7 one more", "ü " + full[:50_000], full[:60_000]]  # "ü": str, not bytes
        sizes = []
        for text in texts:
            vector = embed(text)
            sizes.append(len(buckets))
            assert [x.hex() for x in dense(vector)] == [x.hex() for x in dense_fold_embed(text)]
            for token, bucket in buckets.items():
                assert bucket == reference_bucket(token if type(token) is str else token.decode())
        assert sizes[:2] == [BUCKET_MAP_SIZE, 2]  # full; t7 found, then emptied for "one"
        assert max(sizes) <= BUCKET_MAP_SIZE


def exact_scan(counter, chunks, query, k):
    """Reference retrieval over ``chunks`` of (doc_id, seq, text): every chunk's exact cosine
    with ``query`` from ``counter``'s counts, ranked as Fraction(dot**2, square) descending
    and then by (doc_id, seq), each with the similarity retrieve reports, sqrt(dot**2 /
    (square * query square))."""
    query_counts = counter(query)
    query_square = sum(q * q for q in query_counts.values())
    scored = []
    for doc_id, seq, text in chunks:
        counts = counter(text)
        dot = sum(c * query_counts.get(b, 0) for b, c in counts.items())
        square = sum(c * c for c in counts.values())
        scored.append((-Fraction(dot * dot, square), doc_id, seq,
                       math.sqrt(dot * dot / (square * query_square))))
    scored.sort()
    return [(doc_id, seq, similarity.hex()) for _, doc_id, seq, similarity in scored[:k]]


words = st.lists(st.sampled_from(VOCAB + ["unseen"]), min_size=1, max_size=12)


@st.composite
def corpora(draw):
    """Documents over a small vocabulary, duplicates included so ties occur, and one text
    repeated, so chunks whose counts are multiples tie exactly though their floats differ."""
    docs = draw(st.lists(words, min_size=1, max_size=6))
    docs += draw(st.lists(st.sampled_from(docs), max_size=2))
    docs += draw(st.lists(st.builds(mul, st.sampled_from(docs), st.integers(2, 4)), max_size=2))
    return [" ".join(d) for d in docs]


def check_against_exact(counter, docs, query, k):
    kb = KnowledgeBase()
    with pytest.MonkeyPatch.context() as patch:
        use_embedder(patch, counter)
        for d, text in enumerate(docs):
            kb.ingest(text, f"doc{9 - d}", chunk_size=24, overlap=8)  # ids run against insertion
        chunks = [(c.doc_id, c.seq, c.text) for c in kb._chunks]
        got = [(e.chunk.doc_id, e.chunk.seq, e.similarity.hex()) for e in kb.retrieve(query, k)]
    assert got == exact_scan(counter, chunks, query, k)


class TestSparseEqualsDense:
    @settings(max_examples=80, deadline=None)
    @given(corpora(), words, st.integers(1, 12))
    @example(["dns ftp", "dns ftp dns ftp dns ftp", "port", "backdoor dns"], ["dns"], 2)
    def test_default_embedder(self, docs, query, k):
        check_against_exact(reference_counts, docs, " ".join(query), k)

    @settings(max_examples=40, deadline=None)
    @given(corpora(), words, st.integers(1, 12))
    def test_dense_count_embedder(self, docs, query, k):
        check_against_exact(dense_counts, docs, " ".join(query), k)

    def test_exact_tie_goes_to_the_first_doc_id(self):
        """Both chunks' cosine with "dns" is exactly 1 / sqrt(3), though a float fold of their
        unit vectors puts b one unit in the last place above a."""
        kb = KnowledgeBase()
        kb.ingest(" ".join(["samba nmap dns"] * 3), "a")
        kb.ingest("samba nmap dns", "b")
        assert [e.chunk.doc_id for e in kb.retrieve("dns", 1)] == ["a"]
        assert [(e.chunk.doc_id, e.similarity) for e in kb.retrieve("dns", 2)] == [
            ("a", math.sqrt(1 / 3)), ("b", math.sqrt(1 / 3))]

    def test_count_embedder_fills_every_bucket(self):
        kb = KnowledgeBase()
        with pytest.MonkeyPatch.context() as patch:
            use_embedder(patch, dense_counts)
            for d, text in enumerate(["samba usermap exploit", "nmap", "ftp backdoor dns"]):
                kb.ingest(text, f"doc{d}", chunk_size=24, overlap=8)
        assert len(kb) == 4 and all(list(rows) == [0, 1, 2, 3] for rows in kb._rows)
        assert max(dense_counts("samba usermap exploit").values()) > 3


def postings(vectors: list[tuple]) -> list[list[tuple]]:
    """Reference postings of dense rows: per bucket, the (row, entry) pairs nonzero there, ascending."""
    return [[(r, v[b]) for r, v in enumerate(vectors) if v[b]] for b in range(EMBED_DIM)]


def postings_bytes(vectors: list[tuple[int, ...]]) -> bytes:
    """Reference postings.bin of dense count rows, little-endian: per bucket its posting count,
    then every row id and every term count, bucket-major, and no squared norm."""
    buckets = postings(vectors)
    rows = [r for bucket in buckets for r, _ in bucket]
    counts = [c for bucket in buckets for _, c in bucket]
    return (struct.pack(f"<{EMBED_DIM}I", *map(len, buckets)) + struct.pack(f"<{len(rows)}I", *rows)
            + struct.pack(f"<{len(counts)}I", *counts))


class TestIndexBytes:
    def test_save_writes_postings_of_embed(self, tmp_path):
        corpus = (
            resources.files("penheal.data")
            .joinpath("corpus/pentest_notes.txt")
            .read_text(encoding="utf-8")
        )
        kb = KnowledgeBase()
        kb.ingest(corpus, "pentest_notes")
        kb.save(tmp_path)

        step = DEFAULT_CHUNK_SIZE - DEFAULT_OVERLAP
        pieces = [corpus[s : s + DEFAULT_CHUNK_SIZE] for s in range(0, len(corpus), step)]
        meta = {
            "layout": f"hashed-tf-{EMBED_DIM} postings-uint32-le texts-uint32-lengths-utf8",
            "documents": {"pentest_notes": len(pieces)},
        }
        assert (tmp_path / "texts.bin").read_bytes() == struct.pack(
            f"<{len(pieces)}I", *map(len, pieces)
        ) + "".join(pieces).encode("utf-8")
        assert not (tmp_path / "chunks.jsonl").exists()
        assert (tmp_path / "postings.bin").read_bytes() == postings_bytes(
            [dense(reference_counts(p)) for p in pieces]
        )
        assert (tmp_path / "meta.json").read_bytes() == json.dumps(meta, indent=2).encode()
