"""The postings index: state after any ingest sequence, validation, files, concurrency."""

import json
import random
import struct
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_knowledge_sparse import (
    VOCAB,
    dense,
    dense_scan,
    postings,
    postings_bytes,
    signed_embed,
    use_embedder,
)

from penheal.knowledge import EMBED_DIM, KnowledgeBase, KnowledgeBaseError, embed

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


def check_sequence(embedder, ops, query, k):
    documents = {}  # doc_id -> text, in the order the index holds them
    kb = KnowledgeBase()
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        use_embedder(patch, embedder)
        for op in ops:
            if op[0] == "ingest":
                _, doc_id, text = op
                documents.pop(doc_id, None)
                if text:
                    documents[doc_id] = text
                kb.ingest(text, doc_id, chunk_size=CHUNK_SIZE, overlap=OVERLAP)
            else:
                kb.save(scratch)
                expected = postings_bytes([dense(embedder(c.text)) for c in kb._chunks])
                assert (Path(scratch) / "postings.bin").read_bytes() == expected
                kb = KnowledgeBase.load(scratch)

            chunks = [w for doc_id, text in documents.items() for w in windows(doc_id, text)]
            assert [(c.doc_id, c.seq, c.text) for c in kb._chunks] == chunks
            if not chunks:
                with pytest.raises(KnowledgeBaseError):
                    kb.retrieve(query, k)
                continue
            got = [(e.chunk.doc_id, e.chunk.seq, e.similarity.hex()) for e in kb.retrieve(query, k)]
            assert got == dense_scan(embedder, chunks, query, k)


class TestIngestSequences:
    @settings(max_examples=60, deadline=None)
    @given(operations, texts.filter(bool), st.integers(1, 12))
    def test_default_embedder(self, ops, query, k):
        check_sequence(embed, ops, query, k)

    @settings(max_examples=25, deadline=None)
    @given(operations, texts.filter(bool), st.integers(1, 12))
    def test_dense_signed_embedder(self, ops, query, k):
        check_sequence(signed_embed, ops, query, k)


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
        held = [list(zip(rows, weights)) for rows, weights in zip(kb._rows, kb._weights)]
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
        for extra in (bytes(1), bytes(8), bytes(12)):  # 12: one posting's size, uncounted
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
        count = (len(data) - 4 * EMBED_DIM) // 12  # postings; the last row id is the largest
        struct.pack_into("<i", data, 4 * EMBED_DIM + 4 * (count - 1), row)
        (tmp_path / "postings.bin").write_bytes(data)
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

    @pytest.mark.parametrize("edit", ["drop-line", "add-line", "meta-count"])
    def test_chunk_count_that_disagrees_with_chunks_jsonl_detected(self, tmp_path, edit):
        saved_index(tmp_path)
        lines = (tmp_path / "chunks.jsonl").read_text().splitlines(keepends=True)
        if edit == "meta-count":
            meta = json.loads((tmp_path / "meta.json").read_text())
            (tmp_path / "meta.json").write_text(json.dumps(meta | {"count": 2}))
        else:
            lines = lines[:-1] if edit == "drop-line" else lines + lines[-1:]
            (tmp_path / "chunks.jsonl").write_text("".join(lines))
        with pytest.raises(KnowledgeBaseError, match="chunks"):
            KnowledgeBase.load(tmp_path)

    def test_dense_layout_asks_for_a_new_ingest(self, tmp_path):
        saved_index(tmp_path)
        write_dense_layout(tmp_path)
        with pytest.raises(KnowledgeBaseError, match="re-run `penheal ingest`"):
            KnowledgeBase.load(tmp_path)


def write_dense_layout(directory):
    """Turn the index in ``directory`` into the dense layout of older versions."""
    meta = json.loads((directory / "meta.json").read_text())
    (directory / "meta.json").write_text(json.dumps(meta | {"dtype": "float64-le"}, indent=2))
    (directory / "postings.bin").unlink()
    (directory / "vectors.bin").write_bytes(bytes(8 * EMBED_DIM * meta["count"]))


def test_ingest_while_retrieving_raises_no_buffer_error():
    kb = KnowledgeBase()
    kb.ingest("samba usermap exploit nmap scan port " * 200, "base", chunk_size=40, overlap=0)
    stop, errors = threading.Event(), []

    def retrieve_until_stopped():
        try:
            while not stop.is_set():
                kb.retrieve("samba exploit port", 3)
        except Exception as exc:  # recorded; the assertion below reports it
            errors.append(exc)

    reader = threading.Thread(target=retrieve_until_stopped)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader.start()
        for i in range(300):
            kb.ingest(f"ftp backdoor dns {i} " * 8, f"doc{i % 4}", chunk_size=40, overlap=0)
    finally:
        stop.set()
        reader.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert errors == []
    held = [list(zip(rows, weights)) for rows, weights in zip(kb._rows, kb._weights)]
    assert held == postings([dense(embed(c.text)) for c in kb._chunks])


def test_deep_size_index_equals_dense_oracle(tmp_path):
    """100 documents of 8 chunks, 100 seeded queries: a fresh and a loaded index both rank as
    a scan of precomputed dense vectors does, bit for bit.

    The scan folds each chunk's dense vector, zeros included, over the query's nonzero
    buckets in ascending order; the terms it leaves out are x * 0.0 for a zero query entry,
    which TestSparseEqualsDense shows leave a full cosine() unchanged.
    """
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
    vectors = [dense(embed(text)) for _, _, text in chunks]
    kb.save(tmp_path)
    loaded = KnowledgeBase.load(tmp_path)

    for _ in range(100):
        query = " ".join(rng.choice(vocab + ["unseen"]) for _ in range(rng.randint(1, 8)))
        k = rng.randint(1, 10)
        query_vec = dense(embed(query))
        buckets = [b for b in range(EMBED_DIM) if query_vec[b]]
        scored = []
        for (doc_id, seq, _), vector in zip(chunks, vectors):
            total = 0.0
            for b in buckets:
                total += query_vec[b] * vector[b]
            scored.append((-total, doc_id, seq))
        expected = [(doc_id, seq, (-neg).hex()) for neg, doc_id, seq in sorted(scored)[:k]]
        for index in (kb, loaded):
            got = [(e.chunk.doc_id, e.chunk.seq, e.similarity.hex()) for e in index.retrieve(query, k)]
            assert got == expected
