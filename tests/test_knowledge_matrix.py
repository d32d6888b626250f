"""The embedding matrix: state after any ingest sequence, validation, files, concurrency."""

import struct
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_knowledge_sparse import VOCAB, dense_scan, signed_embed

from penheal import knowledge
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
        patch.setattr(knowledge, "embed", embedder)
        for op in ops:
            if op[0] == "ingest":
                _, doc_id, text = op
                documents.pop(doc_id, None)
                if text:
                    documents[doc_id] = text
                kb.ingest(text, doc_id, chunk_size=CHUNK_SIZE, overlap=OVERLAP)
            else:
                kb.save(scratch)
                expected = b"".join(
                    struct.pack(f"<{EMBED_DIM}d", *embedder(c.text)) for c in kb._chunks
                )
                assert (Path(scratch) / "vectors.bin").read_bytes() == expected
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


class TestValidation:
    def test_oversize_vectors_detected(self, tmp_path):
        kb = KnowledgeBase()
        kb.ingest("some text to index " * 20, "doc", chunk_size=100, overlap=0)
        kb.save(tmp_path)
        with open(tmp_path / "vectors.bin", "ab") as fh:
            fh.write(bytes(8))
        with pytest.raises(KnowledgeBaseError, match="bytes"):
            KnowledgeBase.load(tmp_path)


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
    assert len(kb._vectors) == len(kb) * EMBED_DIM
