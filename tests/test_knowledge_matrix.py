"""The postings index: state after any ingest sequence, validation, files."""

import functools
import itertools
import json
import math
import random
import re
import struct
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_knowledge_sparse import (
    VOCAB,
    dense,
    dense_counts,
    embed,
    exact_scan,
    postings,
    postings_bytes,
    reference_counts,
    use_embedder,
)

from penheal import knowledge
from penheal.knowledge import EMBED_DIM, KEY_BITS, KnowledgeBase, KnowledgeBaseError

CHUNK_SIZE, OVERLAP = 24, 8

texts = st.lists(st.sampled_from(VOCAB), max_size=12).map(" ".join)  # "" empties a document
operations = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.sampled_from(["b", "a", "c"]), texts),
        st.tuples(st.just("reload")),
    ),
    min_size=1,
    max_size=8,
)


def windows(doc_id, text):
    step = CHUNK_SIZE - OVERLAP
    return [(doc_id, seq, text[s : s + CHUNK_SIZE]) for seq, s in enumerate(range(0, len(text), step))]


def check_sequence(counter, ops, query, k):
    documents = {}  # doc_id -> text, in the order the index holds them
    kb = KnowledgeBase()
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        use_embedder(patch, counter)
        for op in ops:
            if op[0] == "ingest":
                _, doc_id, text = op
                documents.pop(doc_id, None)
                if text:
                    documents[doc_id] = text
                kb.ingest(text, doc_id, chunk_size=CHUNK_SIZE, overlap=OVERLAP)
            else:
                kb.save(scratch)
                expected = postings_bytes([dense(counter(c.text)) for c in kb._chunks])
                assert (Path(scratch) / "postings.bin").read_bytes() == expected
                kb = KnowledgeBase.load(scratch)

            chunks = [w for doc_id, text in documents.items() for w in windows(doc_id, text)]
            assert [(c.doc_id, c.seq, c.text) for c in kb._chunks] == chunks
            if not chunks:
                with pytest.raises(KnowledgeBaseError):
                    kb.retrieve(query, k)
                continue
            got = [(e.chunk.doc_id, e.chunk.seq, e.similarity.hex()) for e in kb.retrieve(query, k)]
            assert got == exact_scan(counter, chunks, query, k)


words = st.sampled_from(VOCAB + ["the", "straße", "İstanbul", "ΣΑΣ", "naïve", "x_1"])
# one short token over and over: windows of the largest norm CHUNK_SIZE allows, 12 "a"s
single_token = st.builds(lambda word, n: " ".join([word] * n), st.sampled_from(["a", "x", "ftp"]),
                         st.integers(1, 40))
mixed_operations = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.sampled_from(["b", "a", "c"]),
                  st.lists(words, max_size=14).map(" ".join) | single_token),
        st.tuples(st.just("reload")),
    ),
    min_size=1,
    max_size=8,
)
queries = st.one_of(st.lists(words, min_size=1, max_size=6).map(" ".join), single_token,
                    st.sampled_from(["unseen", "zzz qqq", "?!"]))  # no token in any chunk


@settings(max_examples=60, deadline=None)
@given(mixed_operations, queries, st.integers(1, 40))
@example([("ingest", "a", "the samba the the the"), ("ingest", "b", "the the ftp the the")], "the", 1)
@example([("ingest", "b", "samba exploit"), ("ingest", "a", "samba exploit"), ("reload",)],
         "samba", 1)  # equal scores: doc a first
@example([("ingest", "c", "straße İstanbul naïve ΣΑΣ"), ("ingest", "a", "naïve nmap"),
          ("ingest", "c", "straße ΣΑΣ")], "ΣΑΣ naïve", 40)
@example([("ingest", "a", "samba port"), ("ingest", "b", "dns")], "unseen", 2)
@example([("ingest", "b", "dns ftp dns ftp dns ftp"), ("ingest", "a", "backdoor dns")], "dns",
         1)  # an exact tie whose float folds differ: doc a first
def test_retrieve_equals_dense_scan(ops, query, k):
    """After any ingest, re-ingest and reload, retrieve answers as an exact cosine scan of
    every chunk, similarities bit for bit: buckets every chunk has (packed lanes) and others,
    exact ties by (doc_id, seq), k of at least len(kb), queries sharing no token, and text
    that is not ASCII."""
    check_sequence(reference_counts, ops, query, k)


# Each document is one chunk that says "port", so that bucket (and any other all chunks share)
# is added as packed lanes, whose ints the index keeps between retrieves until an ingest.
shared_texts = st.lists(st.sampled_from(VOCAB), max_size=6).map(lambda w: " ".join(["port", *w]))
lane_operations = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.sampled_from(["a", "b", "c", "d"]), shared_texts),
        st.tuples(st.just("retrieve"), shared_texts, st.integers(1, 4)),
    ),
    min_size=1,
    max_size=12,
)


def answers(kb, query, k):
    return [(e.chunk.doc_id, e.chunk.seq, e.similarity.hex()) for e in kb.retrieve(query, k)]


@settings(max_examples=80, deadline=None)
@given(lane_operations)
@example([("ingest", "a", "port ftp"), ("retrieve", "port", 1), ("ingest", "b", "port"),
          ("retrieve", "port", 1)])  # a new row in a kept bucket
@example([("ingest", "a", "port port ftp"), ("ingest", "b", "port"), ("retrieve", "port", 1),
          ("ingest", "a", "port port ftp"), ("retrieve", "port ftp", 1)])  # renumbered rows
def test_kept_lanes_follow_every_ingest(ops):
    """Retrieves interleaved with ingests of new and re-ingested doc ids answer as an index
    freshly built from the same documents, and as that index saved and loaded."""
    kb, documents = KnowledgeBase(), {}  # doc_id -> text, in the order the index holds them
    with tempfile.TemporaryDirectory() as scratch:
        for op in ops:
            if op[0] == "ingest":
                _, doc_id, text = op
                documents.pop(doc_id, None)
                documents[doc_id] = text
                kb.ingest(text, doc_id, chunk_size=1000, overlap=0)
                continue
            _, query, k = op
            fresh = KnowledgeBase()
            for doc_id, text in documents.items():
                fresh.ingest(text, doc_id, chunk_size=1000, overlap=0)
            fresh.save(scratch)
            if not documents:
                with pytest.raises(KnowledgeBaseError):
                    kb.retrieve(query, k)
                continue
            expected = answers(fresh, query, k)
            assert answers(kb, query, k) == expected
            assert answers(KnowledgeBase.load(scratch), query, k) == expected


SIDE = 1 << 32 - KEY_BITS  # 64: a row of SIDE tokens has norm SIDE and scale 2**KEY_BITS / SIDE


@pytest.mark.parametrize("repeats", [SIDE - 1, SIDE])
def test_lanes_at_their_bound_do_not_carry(repeats):
    """Rows of SIDE and 1 "a" tokens, a query of ``repeats``: both keys are repeats *
    2**KEY_BITS. At SIDE - 1 the query's squared norm is below 2**(2 * (32 - KEY_BITS)), so
    the lanes are packed and hold less than 2**32; at SIDE a key would reach 2**32 and carry
    into the next lane, so that bucket is added posting by posting."""
    kb = KnowledgeBase()
    for doc_id, text in [("a0", "a " * SIDE), ("a1", "a")]:
        kb.ingest(text, doc_id, chunk_size=len(text), overlap=0)
    [bucket] = [b for b, rows in enumerate(kb._rows) if rows]
    assert list(kb._rows[bucket]) == [0, 1]  # every row: the packed path, if lanes fit
    lanes = repeats**2 < 1 << 2 * (32 - KEY_BITS)
    assert lanes == (repeats == SIDE - 1)
    assert kb._keys([(bucket, repeats)], lanes) == [repeats << KEY_BITS] * 2
    assert (repeats << KEY_BITS < 1 << 32) == lanes
    query = "a " * repeats
    # A carry would leave a0 a small key and rank a1 alone above it; the tie at 1.0 is a0's.
    assert [(e.chunk.doc_id, e.similarity) for e in kb.retrieve(query, 2)] == [("a0", 1.0),
                                                                               ("a1", 1.0)]
    assert kb.retrieve(query, 1)[0].chunk.doc_id == "a0"


def test_margin_keeps_rows_whose_dot_over_norm_rounds_low():
    """Rows 59 and 61 times the query's counts have cosine exactly 1, though the first's
    dot / norm rounds one unit in the last place lower: both rank as the exact scan has
    them, with similarity 1.0, and the first wins the tie by doc_id."""
    assert 295 / math.sqrt(59**2 + 118**2) < 305 / math.sqrt(61**2 + 122**2)
    kb = KnowledgeBase()
    for doc_id, times in [("a", 59), ("b", 61)]:
        text = "ftp " * times + "dns dns " * times
        kb.ingest(text, doc_id, chunk_size=len(text), overlap=0)
    chunks = [(c.doc_id, c.seq, c.text) for c in kb._chunks]
    for k in (1, 2):
        got = [(e.chunk.doc_id, e.chunk.seq, e.similarity.hex()) for e in kb.retrieve("ftp dns dns", k)]
        assert got == exact_scan(reference_counts, chunks, "ftp dns dns", k)
    assert got[0][2] == got[1][2] == (1.0).hex() and got[0][0] == "a"


def test_margin_keeps_rows_whose_key_rounds_low():
    """Rows 183 times and once the query's counts have cosine exactly 1, but the first's
    scale floor(2**KEY_BITS / norm) drops almost a whole unit: its key is a relative 6e-6
    below the second's, 0.98 of its norm / 2**KEY_BITS. Only a margin of a norm /
    2**KEY_BITS keeps it a candidate, and it wins the tie by doc_id."""
    kb = KnowledgeBase()
    for doc_id, times in [("a", 183), ("b", 1)]:
        text = "ftp " * times + "dns dns " * times
        kb.ingest(text, doc_id, chunk_size=len(text), overlap=0)
    terms = sorted((b, q) for b, q in reference_counts("ftp dns dns").items())
    keys = kb._keys(terms, True)
    assert keys[0] < keys[1] * (1 - 5.9e-6)
    assert keys[1] - keys[0] > 0.97 * keys[1] * math.sqrt(kb._norms()[0]) / (1 << KEY_BITS)
    chunks = [(c.doc_id, c.seq, c.text) for c in kb._chunks]
    for k in (1, 2):
        got = [(e.chunk.doc_id, e.chunk.seq, e.similarity.hex()) for e in kb.retrieve("ftp dns dns", k)]
        assert got == exact_scan(reference_counts, chunks, "ftp dns dns", k)
    assert got[0][2] == got[1][2] == (1.0).hex() and got[0][0] == "a"


def test_ingest_refuses_a_chunk_size_whose_norm_could_pass_the_key_bound(monkeypatch):
    """lower() at most doubles a window, so a chunk_size of at most 2**(KEY_BITS - 1) keeps
    every squared norm within 2**(2 * KEY_BITS), and every scale 1 or more. With KEY_BITS at
    3, a chunk_size of 5 is refused before anything is indexed, and windows of 4 rank as the
    exact scan has them, the one that lowers to twice its length among them."""
    monkeypatch.setattr(knowledge, "KEY_BITS", 3)
    kb = KnowledgeBase()
    with pytest.raises(ValueError, match="chunk_size must be at most 4"):
        kb.ingest("a " * 12, "a", chunk_size=5, overlap=0)
    assert len(kb) == 0 and not kb._doc_ids
    for doc_id, text in [("a", "İİİİ" * 3), ("b", "a a i"), ("c", "aaaa")]:
        kb.ingest(text, doc_id, chunk_size=4, overlap=0)
    chunks = [(c.doc_id, c.seq, c.text) for c in kb._chunks]
    for k in range(1, len(chunks) + 1):
        assert answers(kb, "i a", k) == exact_scan(reference_counts, chunks, "i a", k)
    assert min(kb._scales) >= 1 and len("İİİİ".lower()) == 8


class TestIngestSequences:
    @settings(max_examples=60, deadline=None)
    @given(operations, texts.filter(bool), st.integers(1, 12))
    def test_default_embedder(self, ops, query, k):
        check_sequence(reference_counts, ops, query, k)

    @settings(max_examples=25, deadline=None)
    @given(operations, texts.filter(bool), st.integers(1, 12))
    def test_dense_count_embedder(self, ops, query, k):
        check_sequence(dense_counts, ops, query, k)


documents = st.one_of(
    texts,
    st.text(max_size=120),
    st.text(alphabet="samba İ ß Σ é K\u212a _9", max_size=120),  # mixed ASCII and not
    st.text(alphabet=" \t\n!?.,;:-+*/$#@()[]{}\x00\x7f", max_size=120),  # no word at all
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), documents, st.integers(1, 40), st.integers(0, 39)),
                min_size=1, max_size=6))
@example([("a", "samba exploit " * 9, 24, 0), ("b", "Straße İ " * 9, 10, 3), ("a", "?! " * 20, 7, 0),
          ("c", "ftp ÷ x_y " * 9, 16, 15)])
def test_postings_equal_per_window_embed(ops):
    """ingest's whole-document pass indexes each window as embed of the window's text does."""
    kb = KnowledgeBase()
    for doc_id, text, chunk_size, overlap in ops:
        kb.ingest(text, doc_id, chunk_size=chunk_size, overlap=min(overlap, chunk_size - 1))
        check_held_postings(kb)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "ünï", "笔记"]),
                          documents | st.text(alphabet="ab 𝔘𝔫𝔦 ß€", max_size=120)),
                min_size=1, max_size=6),
       st.integers(1, 40), st.integers(0, 39), queries, st.integers(1, 12))
@example([("ünï", "Straße İstanbul " * 9), ("a", "samba 𝔘 " * 9), ("ünï", "€ naïve " * 7)],
         16, 4, "straße samba", 3)  # a re-ingest moves ünï's chunks after a's
@example([("a", "line one\r\nline two\rthree\n" * 9)], 10, 0, "line", 2)  # kept as written
def test_save_then_load_is_the_same_index(ops, chunk_size, overlap, query, k):
    """A saved and loaded index holds the same chunks, postings, norms and documents, and
    answers as the index it was saved from, for ASCII and non-ASCII text and doc ids."""
    kb = KnowledgeBase()
    for doc_id, text in ops:
        kb.ingest(text, doc_id, chunk_size=chunk_size, overlap=min(overlap, chunk_size - 1))
    with tempfile.TemporaryDirectory() as scratch:
        kb.save(scratch)
        loaded = KnowledgeBase.load(scratch)
        meta = json.loads((Path(scratch) / "meta.json").read_text(encoding="utf-8"))
    assert loaded._chunks == kb._chunks
    assert [(c.doc_id, c.seq) for c in kb._chunks] == [
        (doc_id, seq) for doc_id, n in meta["documents"].items() for seq in range(n)]
    assert loaded._rows == kb._rows and loaded._counts == kb._counts
    assert loaded._norms() == kb._norms()
    assert {c.doc_id for c in kb._chunks} <= loaded._doc_ids <= kb._doc_ids
    if len(kb):
        assert answers(loaded, query, k) == answers(kb, query, k)


def check_held_postings(kb):
    """Each row's postings are embed of its chunk's text: per bucket the rows ascending, each
    count / norm equal to embed's entry bit for bit, and the row's squared counts summed as its
    squared norm, whose square root is that norm."""
    squares = [0] * len(kb)
    for rows, counts in zip(kb._rows, kb._counts):
        for r, c in zip(rows, counts):
            squares[r] += c * c
    assert kb._norms() == squares
    held = [[(r, c / math.sqrt(squares[r])) for r, c in zip(rows, counts)]
            for rows, counts in zip(kb._rows, kb._counts)]
    assert held == postings([dense(embed(c.text)) for c in kb._chunks])


def saved_index(directory):
    """An index of three chunks saved in ``directory``; returns its postings.bin bytes."""
    kb = KnowledgeBase()
    kb.ingest("some text to index " * 15, "doc", chunk_size=100, overlap=0)
    kb.save(directory)
    assert len(kb) == 3
    return (directory / "postings.bin").read_bytes()


class TestValidation:
    """A damaged index is a KnowledgeBaseError at load, never an IndexError at retrieve."""

    def test_oversize_vectors_detected(self, tmp_path):
        data = saved_index(tmp_path)
        for extra in (bytes(1), bytes(8), bytes(12)):  # 8: one posting's size
            (tmp_path / "postings.bin").write_bytes(data + extra)
            with pytest.raises(KnowledgeBaseError, match="bytes"):
                KnowledgeBase.load(tmp_path)

    @pytest.mark.parametrize("cut", [0, 5, 2047, 2048, 2049, -1, -12, -16])
    def test_truncated_postings_detected(self, tmp_path, cut):
        data = saved_index(tmp_path)
        (tmp_path / "postings.bin").write_bytes(data[:cut])
        with pytest.raises(KnowledgeBaseError, match="bytes"):
            KnowledgeBase.load(tmp_path)

    @pytest.mark.parametrize("row", [-1, 3, 2**31 - 1])
    def test_row_id_out_of_range_detected(self, tmp_path, row):
        data = bytearray(saved_index(tmp_path))
        count = sum(struct.unpack_from(f"<{EMBED_DIM}I", data))  # the last row id is the largest
        struct.pack_into("<i", data, 4 * EMBED_DIM + 4 * (count - 1), row)
        (tmp_path / "postings.bin").write_bytes(data)
        with pytest.raises(KnowledgeBaseError, match="row id"):
            KnowledgeBase.load(tmp_path)

    @pytest.mark.parametrize("row", [3, 2**31 - 1, 2**32 - 1])
    def test_row_id_out_of_range_in_a_bucket_of_some_rows_detected(self, tmp_path, row):
        kb = KnowledgeBase()
        for doc_id, text in [("a", "samba exploit"), ("b", "nmap scan"), ("c", "samba scan")]:
            kb.ingest(text, doc_id)
        kb.save(tmp_path)
        sizes, rows, counts = read_layout((tmp_path / "postings.bin").read_bytes())
        end = sum(sizes[: 1 + next(b for b, size in enumerate(sizes) if 0 < size < 3)])
        rows[end - 1] = row  # still ascending: the bucket's last row
        (tmp_path / "postings.bin").write_bytes(write_layout(sizes, rows, counts))
        with pytest.raises(KnowledgeBaseError, match="row id"):
            KnowledgeBase.load(tmp_path)

    def test_counts_that_disagree_with_the_size_detected(self, tmp_path):
        data = bytearray(saved_index(tmp_path))
        counts = struct.unpack_from(f"<{EMBED_DIM}i", data)
        first, last = counts.index(max(counts)), EMBED_DIM - 1 - counts[::-1].index(0)
        for bucket, delta in [(first, 1), (first, -1), (last, -1)]:
            damaged = bytearray(data)
            struct.pack_into("<i", damaged, 4 * bucket, counts[bucket] + delta)
            (tmp_path / "postings.bin").write_bytes(damaged)
            with pytest.raises(KnowledgeBaseError, match="bytes"):
                KnowledgeBase.load(tmp_path)

    DOCUMENTS = "meta.json documents must name each doc id once, each with 1 or more chunks"
    ADDED = "texts.bin has lengths that sum to 1701671056, not its 281 characters"
    COUNT_EDITS = {  # documents in place of {"doc": 3}, and the error that refuses them
        # the third length's 4 bytes are read as text, or the text's first 4 as a length
        "drop-chunk": ({"doc": 2}, "texts.bin has lengths that sum to 200, not its 289 characters"),
        "add-chunk": ({"doc": 4}, ADDED),
        "add-document": ({"doc": 3, "more": 1}, ADDED),
        "negative": ({"doc": 4, "more": -1}, DOCUMENTS),
        "zero": ({"doc": 3, "more": 0}, DOCUMENTS),
        "doc-id-twice": ([["doc", 2], ["doc", 1]], DOCUMENTS),  # a list of pairs
    }

    @pytest.mark.parametrize("edit", COUNT_EDITS)
    def test_chunk_count_mismatch_detected(self, tmp_path, edit):
        """meta.json's documents must name each doc id once, each with at least one chunk, and
        texts.bin must hold as many chunks as they count: 3 here."""
        saved_index(tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        documents, error = self.COUNT_EDITS[edit]
        (tmp_path / "meta.json").write_text(json.dumps(meta | {"documents": documents}))
        with pytest.raises(KnowledgeBaseError, match=re.escape(error)):
            KnowledgeBase.load(tmp_path)

    @pytest.mark.parametrize("cut", [0, 3, 11, 12, 13, -1, -85])
    def test_truncated_texts_detected(self, tmp_path, cut):
        """Cut inside the 12 bytes of lengths, at their end or inside the text."""
        saved_index(tmp_path)
        data = (tmp_path / "texts.bin").read_bytes()
        (tmp_path / "texts.bin").write_bytes(data[:cut])
        with pytest.raises(KnowledgeBaseError, match="texts.bin has"):
            KnowledgeBase.load(tmp_path)

    @pytest.mark.parametrize("chunk, delta", [(0, 1), (0, -1), (2, -85), (1, 2**32 - 101)])
    def test_lengths_that_disagree_with_the_text_detected(self, tmp_path, chunk, delta):
        saved_index(tmp_path)
        data = bytearray((tmp_path / "texts.bin").read_bytes())
        length = struct.unpack_from("<I", data, 4 * chunk)[0]
        struct.pack_into("<I", data, 4 * chunk, (length + delta) % 2**32)
        (tmp_path / "texts.bin").write_bytes(data)
        with pytest.raises(KnowledgeBaseError, match="lengths that sum to"):
            KnowledgeBase.load(tmp_path)

    # a byte no character starts with, a cut character and an encoded surrogate
    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80"])
    def test_texts_that_are_not_utf8_detected(self, tmp_path, bad):
        saved_index(tmp_path)
        data = (tmp_path / "texts.bin").read_bytes()
        (tmp_path / "texts.bin").write_bytes(data[:20] + bad + data[20 + len(bad):])
        with pytest.raises(KnowledgeBaseError, match="texts.bin is not UTF-8: "):
            KnowledgeBase.load(tmp_path)

    @pytest.mark.parametrize("layout", ["norms", "chunks-jsonl", "float", "dense"])
    def test_older_layout_asks_for_a_new_ingest(self, tmp_path, layout):
        saved_index(tmp_path)
        writer = {"norms": write_norms_layout, "chunks-jsonl": write_jsonl_layout,
                  "float": write_float_layout, "dense": write_dense_layout}[layout]
        writer(tmp_path)
        error = ("index layout None is not 'hashed-tf-512 postings-uint32-le "
                 "texts-uint32-lengths-utf8'; re-run `penheal ingest` on its documents into a new "
                 "directory")
        with pytest.raises(KnowledgeBaseError, match=f"^{re.escape(error)}$"):
            KnowledgeBase.load(tmp_path)

    @pytest.mark.parametrize("edit", ["twice", "swapped"])
    def test_bucket_rows_not_strictly_ascending_detected(self, tmp_path, edit):
        sizes, rows, counts = read_layout(saved_index(tmp_path))
        first = sum(sizes[: next(b for b, size in enumerate(sizes) if size >= 2)])
        if edit == "twice":
            rows[first + 1] = rows[first]
        else:
            rows[first], rows[first + 1] = rows[first + 1], rows[first]
        (tmp_path / "postings.bin").write_bytes(write_layout(sizes, rows, counts))
        with pytest.raises(KnowledgeBaseError, match="twice or out of order"):
            KnowledgeBase.load(tmp_path)

    def test_zero_count_detected(self, tmp_path):
        sizes, rows, counts = read_layout(saved_index(tmp_path))
        counts[0] = 0
        assert squared_norms(rows, counts)[rows[0]] > 0  # its row keeps a posting
        (tmp_path / "postings.bin").write_bytes(write_layout(sizes, rows, counts))
        with pytest.raises(KnowledgeBaseError, match="term count of 0 or a chunk with no posting"):
            KnowledgeBase.load(tmp_path)

    def test_zero_squared_norm_detected(self, tmp_path):
        """A chunk with no posting has a squared norm of 0: here every posting of row 0 is
        dropped, and each bucket keeps its other rows in order."""
        sizes, rows, counts = read_layout(saved_index(tmp_path))
        kept = [r != 0 for r in rows]
        bounds = list(itertools.accumulate(sizes, initial=0))
        sizes = [sum(kept[a:b]) for a, b in itertools.pairwise(bounds)]
        rows, counts = list(itertools.compress(rows, kept)), list(itertools.compress(counts, kept))
        assert 0 not in squared_norms(rows, counts)
        (tmp_path / "postings.bin").write_bytes(write_layout(sizes, rows, counts))
        with pytest.raises(KnowledgeBaseError, match="term count of 0 or a chunk with no posting"):
            KnowledgeBase.load(tmp_path)

    @pytest.mark.parametrize("count", [1 << KEY_BITS, (1 << KEY_BITS) + 1])
    def test_squared_norm_above_the_key_bound_detected(self, tmp_path, count):
        """A row of one posting whose count is ``count``: a squared norm of at most
        2**(2 * KEY_BITS) loads and keeps its row a scale of 1; one above it is refused."""
        kb = KnowledgeBase()
        kb.ingest("a", "a")
        kb.save(tmp_path)
        sizes, rows, _ = read_layout((tmp_path / "postings.bin").read_bytes())
        (tmp_path / "postings.bin").write_bytes(write_layout(sizes, rows, [count]))
        if count > 1 << KEY_BITS:
            bound = rf"squared norm above 2\*\*{2 * KEY_BITS}$"
            with pytest.raises(KnowledgeBaseError, match=bound):
                KnowledgeBase.load(tmp_path)
        else:
            assert answers(KnowledgeBase.load(tmp_path), "a", 1) == [("a", 0, (1.0).hex())]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("abc"), texts.filter(bool) | single_token),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.sampled_from(["swap", "set"]), st.integers(1, 16),
                              st.sampled_from([0, 1, 4, 16, 1 << KEY_BITS, (1 << KEY_BITS) + 1,
                                               2**32 - 1]) | st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=3),
           queries)
    @example([("a", "a a a a"), ("b", "a")], [("swap", 1, 1)], "a")
    def test_edited_postings_load_as_their_counts_or_not_at_all(self, docs, edits, query):
        """postings.bin edited from its end: ("swap", w, v) swaps the w-th last 8-byte word with
        the (v % 16 + 1)-th, ("set", w, v) sets the w-th last 4-byte word to v. load refuses it
        with a KnowledgeBaseError, or the index ranks every chunk as the exact scan of the
        counts it loaded, no similarity above 1. The example swaps the last two words of doc a =
        "a a a a" and doc b = "a": when postings.bin ended with the stored squared norms (16,
        1), it loaded them swapped and a reported similarity 4.0."""
        kb = KnowledgeBase()
        for doc_id, text in docs:
            kb.ingest(text, doc_id)
        with tempfile.TemporaryDirectory() as scratch:
            kb.save(scratch)
            path = Path(scratch) / "postings.bin"
            data = bytearray(path.read_bytes())
            for edit, word, other in edits:
                if edit == "swap":
                    a, b = len(data) - 8 * word, len(data) - 8 * (other % 16 + 1)
                    data[a : a + 8], data[b : b + 8] = data[b : b + 8], data[a : a + 8]
                else:
                    struct.pack_into("<I", data, len(data) - 4 * word, other)
            path.write_bytes(data)
            try:
                loaded = KnowledgeBase.load(scratch)
            except KnowledgeBaseError:
                return
        held = [{} for _ in range(len(loaded))]  # per row, {bucket: count} as loaded
        for b, (rows, counts) in enumerate(zip(loaded._rows, loaded._counts)):
            for r, c in zip(rows, counts):
                held[r][b] = c
        chunks = [(c.doc_id, c.seq, r) for r, c in enumerate(loaded._chunks)]

        def counter(text):  # a chunk's text is its row, whose counts are the loaded ones
            return held[text] if type(text) is int else reference_counts(text)

        got = answers(loaded, query, len(loaded))
        assert got == exact_scan(counter, chunks, query, len(loaded))
        assert all(float.fromhex(similarity) <= 1.0 for _, _, similarity in got)


def read_layout(data):
    """postings.bin as lists: posting count per bucket, row ids, term counts."""
    sizes = list(struct.unpack_from(f"<{EMBED_DIM}I", data))
    total = sum(sizes)
    rows = list(struct.unpack_from(f"<{total}I", data, 4 * EMBED_DIM))
    counts = list(struct.unpack_from(f"<{total}I", data, 4 * EMBED_DIM + 4 * total))
    return sizes, rows, counts


def write_layout(sizes, rows, counts):
    return (struct.pack(f"<{EMBED_DIM}I", *sizes) + struct.pack(f"<{len(rows)}I", *rows)
            + struct.pack(f"<{len(counts)}I", *counts))


def squared_norms(rows, counts):
    """Each row's squared norm, summed from the counts of its postings."""
    squares = Counter()
    for r, c in zip(rows, counts):
        squares[r] += c * c
    return squares


def write_norms_layout(directory):
    """Turn the index in ``directory`` into the layout of the versions that ended postings.bin
    with each chunk's uint64 squared norm and whose meta.json held the dimension, the postings
    dtype, the chunk count, the embedder, the texts layout and the documents."""
    meta = json.loads((directory / "meta.json").read_text())
    data = (directory / "postings.bin").read_bytes()
    count, squares = sum(meta["documents"].values()), squared_norms(*read_layout(data)[1:])
    (directory / "postings.bin").write_bytes(
        data + struct.pack(f"<{count}Q", *map(squares.__getitem__, range(count))))
    (directory / "meta.json").write_text(json.dumps(
        {"dimension": EMBED_DIM, "dtype": "postings-uint32-counts-uint64-norms-le",
         "count": count, "embedder_id": f"hashed-tf-{EMBED_DIM}",
         "texts": "lengths-uint32-le-utf8", "documents": meta["documents"]}, indent=2))


def write_float_layout(directory):
    """Turn the index in ``directory`` into the float64-entry postings layout of older versions,
    each entry its count over the norm the counts sum to."""
    write_norms_layout(directory)
    meta = json.loads((directory / "meta.json").read_text())
    (directory / "meta.json").write_text(
        json.dumps(meta | {"dtype": "postings-int32-float64-le"}, indent=2))
    sizes, rows, counts = read_layout((directory / "postings.bin").read_bytes())
    squares = squared_norms(rows, counts)
    entries = [c / math.sqrt(squares[r]) for r, c in zip(rows, counts)]
    (directory / "postings.bin").write_bytes(
        struct.pack(f"<{EMBED_DIM}i", *sizes) + struct.pack(f"<{len(rows)}i", *rows)
        + struct.pack(f"<{len(entries)}d", *entries))


def write_jsonl_layout(directory):
    """Turn the index in ``directory`` into the chunks.jsonl layout of older versions: one
    JSON line per chunk, and a meta.json without the texts layout or the documents."""
    kb = KnowledgeBase.load(directory)
    write_norms_layout(directory)
    meta = json.loads((directory / "meta.json").read_text())
    (directory / "meta.json").write_text(json.dumps(
        {key: meta[key] for key in ("dimension", "dtype", "count", "embedder_id")}, indent=2))
    (directory / "texts.bin").unlink()
    (directory / "chunks.jsonl").write_text("".join(
        json.dumps(c._asdict(), ensure_ascii=False) + "\n" for c in kb._chunks), encoding="utf-8")


def write_dense_layout(directory):
    """Turn the index in ``directory`` into the dense layout of older versions."""
    write_norms_layout(directory)
    meta = json.loads((directory / "meta.json").read_text())
    (directory / "meta.json").write_text(json.dumps(meta | {"dtype": "float64-le"}, indent=2))
    (directory / "postings.bin").unlink()
    (directory / "vectors.bin").write_bytes(bytes(8 * EMBED_DIM * meta["count"]))


def test_deep_size_index_equals_dense_oracle(tmp_path):
    """100 documents of 8 chunks, 100 seeded queries: a fresh and a loaded index both answer
    as the exact cosine scan of every chunk, similarities bit for bit. Ten documents start
    with another's first chunk, so equal scores are broken by (doc_id, seq)."""
    rng = random.Random(19)
    vocab = [f"w{i}" for i in range(300)] + VOCAB
    kb, chunks = KnowledgeBase(), []
    for d in range(100):
        text = " ".join(rng.choice(vocab) for _ in range(1200))[:4800]
        if d >= 90:  # ten copies, so equal scores are broken by (doc_id, seq)
            text = (chunks[8 * (d - 90)][2] + text)[:4800]
        kb.ingest(text, f"doc{d:03d}")
        chunks += [(f"doc{d:03d}", seq, text[s : s + 800])
                   for seq, s in enumerate(range(0, len(text), 600))]
    assert len(kb) == len(chunks) == 800
    counter = functools.cache(reference_counts)  # each chunk's counts once, not per query
    kb.save(tmp_path)
    loaded = KnowledgeBase.load(tmp_path)

    for _ in range(100):
        query = " ".join(rng.choice(vocab + ["unseen"]) for _ in range(rng.randint(1, 8)))
        k = rng.randint(1, 10)
        expected = exact_scan(counter, chunks, query, k)
        for index in (kb, loaded):
            assert answers(index, query, k) == expected
