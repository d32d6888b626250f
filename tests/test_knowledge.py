"""Knowledge base: windowed ingestion, exact retrieval, persistence."""

import json
import math
import random
import time
from importlib import resources

import pytest

from penheal.gateway import AgentRole
from penheal.knowledge import (
    KnowledgeBase,
    KnowledgeBaseError,
)
from penheal.prompts import format_excerpts, render_prompt
from test_knowledge_sparse import embed, exact_scan, reference_counts


class TestEmbed:
    def test_deterministic(self):
        assert embed("samba exploit usermap") == embed("samba exploit usermap")

    def test_unit_norm(self):
        for text in ("a", "several words here", "x " * 300, "!!!"):
            vector = embed(text)
            assert math.isclose(math.sqrt(sum(v * v for v in vector.values())), 1.0, rel_tol=1e-12)

    def test_bag_of_words_order_invariance(self):
        assert embed("samba exploit usermap") == embed("usermap samba exploit")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            embed("")


class TestIngest:
    def test_windowing_arithmetic(self):
        kb = KnowledgeBase()
        doc = "a" * 250 + "b" * 250 + "c" * 250 + "d" * 250  # 1000 chars
        count = kb.ingest(doc, "doc", chunk_size=400, overlap=100)
        assert count == 4
        texts = [c.text for c in kb._chunks]
        assert [len(t) for t in texts] == [400, 400, 400, 100]
        assert texts[0] == doc[0:400]
        assert texts[1] == doc[300:700]
        assert texts[2] == doc[600:1000]
        assert texts[3] == doc[900:1000]

    def test_empty_document_zero_chunks(self):
        kb = KnowledgeBase()
        assert kb.ingest("", "doc") == 0
        assert len(kb) == 0

    def test_reingest_replaces_not_duplicates(self):
        kb = KnowledgeBase()
        kb.ingest("first version " * 30, "doc", chunk_size=100, overlap=0)
        before = len(kb)
        kb.ingest("second version " * 30, "doc", chunk_size=100, overlap=0)
        assert len(kb) == len([c for c in kb._chunks if c.doc_id == "doc"])
        assert all("second" in c.text for c in kb._chunks)
        kb.ingest("", "doc")
        assert len(kb) == 0
        assert before > 0

    @pytest.mark.parametrize("chunk_size,overlap", [(100, 100), (50, 100), (100, -1)])
    def test_bad_window_params_rejected(self, chunk_size, overlap):
        with pytest.raises(ValueError):
            KnowledgeBase().ingest("text", "d", chunk_size=chunk_size, overlap=overlap)

    def test_bundled_corpus_chunk_count(self):
        corpus = (
            resources.files("penheal.data")
            .joinpath("corpus/pentest_notes.txt")
            .read_text(encoding="utf-8")
        )
        kb = KnowledgeBase()
        # Golden count computed once from the bundled corpus with defaults.
        assert kb.ingest(corpus, "pentest_notes") == 8


class TestRetrieve:
    def _mini_corpus(self):
        kb = KnowledgeBase()
        kb.ingest(
            "Employ the use command after the exploit name: "
            "msf > use exploit/multi/samba/usermap_script. This module exploits "
            "a command execution vulnerability in Samba versions 3.0.20 through "
            "3.0.25rc3 when using the username map script option.",
            "samba",
            chunk_size=400,
            overlap=0,
        )
        kb.ingest(
            "Querying DNS resolvers: issue dig commands at the name server to "
            "read the version banner and detect permissive recursion settings.",
            "dns",
            chunk_size=400,
            overlap=0,
        )
        kb.ingest(
            "Mail enumeration over port 25 with VRFY loops discloses valid "
            "account names on legacy mail daemons.",
            "smtp",
            chunk_size=400,
            overlap=0,
        )
        return kb

    def test_samba_task_ranks_usermap_chunk_first(self):
        kb = self._mini_corpus()
        excerpts = kb.retrieve("Exploit Samba smbd 3.X - 4.X on ports 139 and 445", k=3)
        assert "usermap_script" in excerpts[0].chunk.text

    def test_k_larger_than_corpus_returns_all(self):
        kb = self._mini_corpus()
        assert len(kb.retrieve("anything at all", k=50)) == len(kb)

    def test_empty_index_instructs_ingestion(self):
        with pytest.raises(KnowledgeBaseError) as exc_info:
            KnowledgeBase().retrieve("query", k=1)
        assert "ingest" in str(exc_info.value)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            self._mini_corpus().retrieve("q", k=0)

    def test_results_sorted_with_deterministic_ties(self):
        kb = KnowledgeBase()
        kb.ingest("alpha beta", "b-doc", chunk_size=50, overlap=0)
        kb.ingest("alpha beta", "a-doc", chunk_size=50, overlap=0)
        excerpts = kb.retrieve("alpha beta", k=2)
        assert excerpts[0].similarity == excerpts[1].similarity
        assert excerpts[0].chunk.doc_id == "a-doc"  # (doc_id, seq) ascending on ties

    def test_matches_brute_force_scan(self):
        rng = random.Random(7)
        vocab = [f"word{i}" for i in range(40)]
        kb = KnowledgeBase()
        chunks = []
        for d in range(20):
            text = " ".join(rng.choice(vocab) for _ in range(25))
            kb.ingest(text, f"doc{d:02d}", chunk_size=500, overlap=0)
            chunks.append((f"doc{d:02d}", 0, text))

        for trial in range(10):
            query = " ".join(rng.choice(vocab) for _ in range(5))
            [(doc_id, seq, similarity)] = exact_scan(reference_counts, chunks, query, 1)
            got = kb.retrieve(query, k=1)[0]
            assert (got.chunk.doc_id, got.chunk.seq) == (doc_id, seq)
            assert got.similarity.hex() == similarity


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        kb = KnowledgeBase()
        kb.ingest("alpha beta gamma " * 40, "doc1", chunk_size=120, overlap=30)
        kb.ingest("delta epsilon zeta " * 40, "doc2", chunk_size=120, overlap=30)
        kb.save(tmp_path / "index")

        loaded = KnowledgeBase.load(tmp_path / "index")
        assert len(loaded) == len(kb)
        query = "delta epsilon"
        original = [(e.chunk.doc_id, e.chunk.seq, e.similarity) for e in kb.retrieve(query, 5)]
        reloaded = [(e.chunk.doc_id, e.chunk.seq, e.similarity) for e in loaded.retrieve(query, 5)]
        assert original == reloaded

    def test_reingest_after_load_replaces_the_loaded_chunks(self, tmp_path):
        kb = KnowledgeBase()
        kb.ingest("alpha beta gamma " * 40, "doc1", chunk_size=120, overlap=30)
        kb.ingest("delta epsilon zeta " * 40, "doc2", chunk_size=120, overlap=30)
        kb.save(tmp_path / "index")

        loaded = KnowledgeBase.load(tmp_path / "index")
        loaded.ingest("alpha beta gamma " * 40, "doc1", chunk_size=120, overlap=30)
        assert len(loaded) == len(kb)
        query, k = "alpha delta", len(kb)
        fresh = [(e.chunk, e.similarity) for e in kb.retrieve(query, k)]
        assert [(e.chunk, e.similarity) for e in loaded.retrieve(query, k)] == fresh

    def test_load_requires_the_embedder_of_the_index(self, tmp_path):
        kb = KnowledgeBase()
        kb.ingest("alpha beta gamma " * 40, "doc1", chunk_size=120, overlap=30)
        kb.save(tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        for embedder in ["reversed-hashed-tf-512", "hashed-tf-384"]:
            layout = meta["layout"].replace("hashed-tf-512", embedder)
            (tmp_path / "meta.json").write_text(json.dumps(meta | {"layout": layout}))
            with pytest.raises(KnowledgeBaseError, match=f"index layout '{embedder} .*re-run"):
                KnowledgeBase.load(tmp_path)

    def test_truncated_vectors_detected(self, tmp_path):
        kb = KnowledgeBase()
        kb.ingest("some text to index " * 20, "doc", chunk_size=100, overlap=0)
        kb.save(tmp_path / "index")
        postings = tmp_path / "index" / "postings.bin"
        postings.write_bytes(postings.read_bytes()[:-16])
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase.load(tmp_path / "index")


def build_instructor_prompt(task, excerpts):
    """The executor's Instructor request for ``task``, as the discovery loop renders it."""
    variables = {"task": task, "excerpts": format_excerpts(excerpts)}
    return render_prompt(AgentRole.EXECUTOR, variables, "instructor")


class TestInstructorPrompt:
    def test_zero_excerpts(self):
        text = build_instructor_prompt("Scan the target", [])
        assert "Here is a brief introduction to the task: Scan the target." in text
        assert text.rstrip().endswith("reference:")

    def test_two_excerpts_numbered_in_rank_order(self):
        kb = KnowledgeBase()
        kb.ingest("first about samba usermap", "a", chunk_size=100, overlap=0)
        kb.ingest("second about unrelated mail", "b", chunk_size=100, overlap=0)
        excerpts = kb.retrieve("samba usermap", 2)
        text = build_instructor_prompt("Exploit Samba", excerpts)
        lines = text.splitlines()
        assert lines[1].startswith("1. ")
        assert lines[2].startswith("2. ")
        assert "samba usermap" in lines[1]

    def test_retrieval_guidance_golden_shape(self):
        kb = KnowledgeBase()
        kb.ingest(
            "Employ the use command after the exploit name: "
            "msf > use exploit/multi/samba/usermap_script",
            "samba",
            chunk_size=400,
            overlap=0,
        )
        excerpts = kb.retrieve("Exploit Samba smbd 3.X - 4.X on ports 139 and 445", 3)
        text = build_instructor_prompt(
            "Exploit Samba smbd 3.X - 4.X on ports 139 and 445", excerpts
        )
        assert text == (
            "Here is a brief introduction to the task: Exploit Samba smbd 3.X - "
            "4.X on ports 139 and 445. Here is some info from the knowledge base "
            "for your reference:\n"
            "1. Employ the use command after the exploit name: "
            "msf > use exploit/multi/samba/usermap_script"
        )


def test_retrieval_oracle_hundred_chunks_under_two_seconds():
    rng = random.Random(99)
    vocab = [f"term{i}" for i in range(60)]
    kb = KnowledgeBase()
    texts = []
    for d in range(100):
        text = " ".join(rng.choice(vocab) for _ in range(30))
        kb.ingest(text, f"d{d:03d}", chunk_size=600, overlap=0)
        texts.append((f"d{d:03d}", 0, text))

    start = time.monotonic()
    for _ in range(50):
        k = rng.randint(1, 8)
        query = " ".join(rng.choice(vocab) for _ in range(6))
        expected = exact_scan(reference_counts, texts, query, k)
        got = [(e.chunk.doc_id, e.chunk.seq, e.similarity.hex()) for e in kb.retrieve(query, k)]
        assert got == expected
    assert time.monotonic() - start < 2.0
