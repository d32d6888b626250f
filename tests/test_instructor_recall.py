"""The Instructor's recall on the bundled host and corpus, pinned (see ``instructor_recall``)."""

import pytest
from instructor_recall import instructor_recall, names_a_trigger, trigger_parts

from penheal import cli
from penheal.simulator import load_host_model


@pytest.fixture(scope="module")
def bundled():
    """The bundled host model and the index a run builds from the bundled corpus."""
    return load_host_model(), cli._build_knowledge_base(None)


@pytest.mark.parametrize("k, by_service, by_description", [(1, 2, 7), (3, 5, 9), (5, 9, 10)])
def test_bundled_recall(bundled, k, by_service, by_description):
    host, kb = bundled
    assert (len(host.weakness_rows()), len(kb)) == (10, 8)
    assert instructor_recall(host, kb, k) == (by_service, by_description)


def test_recall_grows_with_k_to_what_the_corpus_names(bundled):
    host, kb = bundled
    recalls = [instructor_recall(host, kb, k) for k in range(1, len(kb) + 1)]
    for form in zip(*recalls):
        assert list(form) == sorted(form)
    assert recalls[-1] == (10, 10)  # every chunk retrieved: each row is named somewhere


def test_a_trigger_is_named_by_its_module_name_or_its_literal_parts():
    assert trigger_parts("exploit/unix/ftp/vsftpd_234_backdoor") == ["vsftpd_234_backdoor"]
    assert trigger_parts("ssh*{user}*{pass}") == ["ssh"]
    assert trigger_parts("{user}*{pass}*telnet") == ["telnet"]
    assert trigger_parts("mount*:/*") == ["mount", ":/"]
    assert names_a_trigger("msf > use exploit/unix/ftp/VSFTPD_234_Backdoor",
                           ["exploit/x/vsftpd_234_backdoor"])
    assert names_a_trigger("Mount it with mount -t nfs <target IP>:/ /mnt", ["mount*:/*"])
    assert not names_a_trigger("mount the export", ["mount*:/*"])
