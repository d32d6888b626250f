"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines. Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import json
import random
import re
import time
from math import floor
from pathlib import Path

import pytest

from penheal import cvss
from penheal.cli import _build_knowledge_base, bundled_fixture_path, main
from penheal.engine import (
    parse_commands,
    parse_extractor_blocks,
    parse_plan_text,
    run_pentest,
)
from penheal.gateway import Gateway, ReplayBackend, load_transcript
from penheal.knapsack import solve_group_knapsack
from penheal.knowledge import KnowledgeBase
from plan_invariants import walk
from test_knowledge_sparse import exact_scan, reference_counts
from penheal.model import RunConfig, TaskStatus, deserialize_run
from penheal.remediation import RecommendationGroup, select
from penheal.model import Recommendation
from penheal.scoring import overall
from penheal.model import AggregationMode
from penheal.simulator import SimulatorBackend, load_host_model
from penheal.engine import Command, CommandChannel

DATA = Path(__file__).parent / "data"


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS - {message}")


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_cvss_oracle_suite():
    """200 randomized vectors + 3 anchors match the reference table exactly."""
    oracle = json.loads((DATA / "cvss_oracle.json").read_text())
    entries = oracle["entries"]
    assert len(entries) >= 203

    anchors = {
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N": 0.0,
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H": 9.8,
        "CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:C/C:H/I:H/A:H": 9.9,
    }
    start = time.monotonic()
    for vector, expected in anchors.items():
        assert cvss.parse_vector(vector).base_score == expected
    mismatches = [
        entry["vector"]
        for entry in entries
        if cvss.parse_vector(entry["vector"]).base_score != entry["score"]
    ]
    elapsed = time.monotonic() - start
    assert mismatches == []
    assert elapsed < 1.0
    report(1, f"{len(entries)} oracle vectors exact in {elapsed:.3f}s")


# -- criterion 2 -------------------------------------------------------------


def _brute_force_value(groups, budget):
    """Best value by enumeration, in whole cents, within the budget's whole 0.1 units.

    Cents, as the solver counts: float sums of equal-cent sets can differ in the last bit.
    """
    capacity = floor(round(budget * 10, 6))
    best = 0
    choices = [[None] + list(range(len(g))) for g in groups]
    for combo in itertools.product(*choices):
        picked = [groups[g][i] for g, i in enumerate(combo) if i is not None]
        if sum(round(cost * 10) for cost, _ in picked) <= capacity:
            best = max(best, sum(round(value * 100) for _, value in picked))
    return best / 100


def test_criterion_2_knapsack_oracle():
    """500 random instances: DP equals enumeration, constraints never break."""
    assert _brute_force_value([[(0.5, 1.0)]], 0.46) == 0.0
    assert _brute_force_value([[(1.6, 1.0)]], 1.55) == 0.0
    assert _brute_force_value([[(0.7, 1.0)]] * 3, 0.7 * 3) == 3.0
    rng = random.Random(20240318)
    start = time.monotonic()
    for _ in range(500):
        groups = [
            [
                (rng.choice([0.5, 1.6, 2.0, 5.0, 10.0]), round(rng.uniform(0.0, 18.0), 1))
                for _ in range(rng.randint(1, 4))
            ]
            for _ in range(rng.randint(1, 4))
        ]
        budget = rng.choice([
            float(rng.randint(0, 40)),  # whole units
            rng.randint(0, 400) / 10,  # tenths
            rng.choice([0.46, 1.55, 2.09, 4.99]),  # between tenths: rounds down
        ])
        picks = solve_group_knapsack(groups, budget)
        value = cost = 0.0  # a left fold in group order
        for g, i in picks:
            cost += groups[g][i][0]
            value += groups[g][i][1]
        assert round(value, 2) == _brute_force_value(groups, budget)
        assert round(cost * 10) <= floor(round(budget * 10, 6))
        picked = [g for g, _ in picks]
        assert len(picked) == len(set(picked))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"500 instances exact vs enumeration in {elapsed:.2f}s")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_narrowing_reproduction():
    """Four candidates, budget 3: one cheap full fix in, audit and shutdown out."""
    key = "CVE-NA@samba:445"

    def candidate(text, cost, value):
        return Recommendation(text=text, target_vuln_ids=(key,), cost=cost, value=value)

    group = RecommendationGroup(
        candidates=(
            candidate("Update Samba using the package manager", 2.0, 9.0),
            candidate("Perform regular security audits", 2.0, 3.0),
            candidate("Shut down the Samba service", 10.0, 9.0),
            candidate("Configure firewall rules for the SMB ports", 2.0, 9.0),
        ),
    )
    result = select([group], budget=3.0)
    adopted = [c.text for c in result.selected]
    assert len(adopted) == 1
    assert adopted[0].startswith(("Update Samba", "Configure firewall"))
    by_text = {c.text: c.status.value for c in result.groups[0].candidates}
    assert by_text["Perform regular security audits"] == "discarded"
    assert by_text["Shut down the Samba service"] == "discarded"
    report(3, f"adopted exactly one cheap full fix: {adopted[0][:40]!r}")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_hermetic_golden_run(tmp_path, no_network):
    """Bundled fixtures + simulator: 6/10 found, S_D = 6.0, 5 identical runs."""
    start = time.monotonic()
    findings_blobs = []
    s_d_values = []
    for i in range(5):
        out = tmp_path / f"run{i}"
        code = main(
            ["run", "--target", "10.0.2.4", "--mode", "hermetic", "--out", str(out)]
        )
        assert code == 0
        _, findings, _, score = deserialize_run((out / "run-artifact.json").read_bytes())
        findings_blobs.append(
            json.dumps([f.to_dict() for f in findings], sort_keys=True).encode()
        )
        s_d_values.append(score.s_d)
        assert len(findings) == 6
    elapsed = time.monotonic() - start
    assert all(blob == findings_blobs[0] for blob in findings_blobs)
    assert all(s_d == 6.0 for s_d in s_d_values)
    assert elapsed < 10.0
    report(4, f"5 byte-identical hermetic runs, S_D=6.0, no sockets, {elapsed:.2f}s")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_scoring_arithmetic():
    """Overall-score arithmetic for the published comparison point."""
    total = overall(2.00, 5.07, 6.13, AggregationMode.SUM)
    assert total == pytest.approx(0.94, abs=1e-9)
    divided = overall(2.00, 5.07, 6.13, AggregationMode.DIVIDED_BY_THREE)
    assert divided == pytest.approx(0.94 / 3.0, abs=1e-9)
    report(5, f"sum={total:.10f}, div3={divided:.10f}")


# -- criterion 6 -------------------------------------------------------------


def _references(description: str, finding) -> bool:
    # Independent re-statement of the "task covers this finding" predicate.
    text = description.lower()
    if finding.id != "CVE-NA" and finding.id.lower() in text:
        return True
    if re.search(rf"\b{re.escape(finding.service.lower())}\b", text):
        return True
    if finding.port is not None and f"port {finding.port}" in text:
        return True
    return False


COUNTERFACTUAL_MARK = "as if they do not exist"


def _check_counterfactual_property(fixture_name: str, record_path: Path):
    gateway = Gateway(ReplayBackend(bundled_fixture_path(f"{fixture_name}.jsonl")),
                      record_path=record_path)
    config = RunConfig(target_address="10.0.2.4")
    result = run_pentest(config, SimulatorBackend(load_host_model()), gateway,
                         _build_knowledge_base(None))
    exchanges = load_transcript(record_path)

    # Exactly one counterfactual per iteration with >= 1 new finding.
    expected = sum(1 for log in result.iterations if log.new_finding_keys)
    prompts = [
        (i, e)
        for i, e in enumerate(exchanges)
        if any(COUNTERFACTUAL_MARK in t.content for t in e.messages)
    ]
    assert len(prompts) == expected

    # After each counterfactual, no still-to-do task covers a known finding.
    known = []
    for index, exchange in enumerate(exchanges):
        if exchange.role.value == "Extractor":
            found, _ = parse_extractor_blocks(exchange.response)
            for v in found:
                if v.key not in {k.key for k in known}:
                    known.append(v)
        if any(COUNTERFACTUAL_MARK in t.content for t in exchange.messages):
            snapshot = list(known)
            plan_lines = None
            for later in exchanges[index + 1 :]:
                if later.role.value == "Planner":
                    plan_lines = parse_plan_text(later.messages[-1].content)
                    break
            if plan_lines is None:
                plan_lines = [
                    type("L", (), {"status": n.status, "description": n.description})
                    for n in walk(result.plan)
                ]
            for line in plan_lines:
                if line.status is TaskStatus.TODO:
                    for finding in snapshot:
                        assert not _references(line.description, finding), (
                            fixture_name,
                            line.description,
                            finding.key_str,
                        )
    return expected, len(result.iterations)


def test_criterion_6_counterfactual_trigger_property(tmp_path):
    golden_cf, golden_iters = _check_counterfactual_property("golden6", tmp_path / "g.jsonl")
    nofind_cf, nofind_iters = _check_counterfactual_property("nofind", tmp_path / "n.jsonl")
    assert golden_cf == 6  # six finding iterations in the golden run
    assert nofind_cf == 0
    report(
        6,
        f"golden6: {golden_cf} counterfactuals over {golden_iters} iterations; "
        f"nofind: {nofind_cf} over {nofind_iters}",
    )


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_parser_suites():
    """Exact command, vector and extractor parsing over fixed case tables."""
    command_cases = [
        ("$nmap --script vuln 10.0.2.4$", [("nmap --script vuln 10.0.2.4", "shell")]),
        (
            "run $msfconsole: use exploit/multi/samba/usermap_script$ now",
            [("use exploit/multi/samba/usermap_script", "msfconsole")],
        ),
        ("no dollar signs here", []),
        ("", []),
        ("$a1$ then $b2$", [("a1", "shell"), ("b2", "shell")]),
        ("$a1$$b2$", [("a1", "shell"), ("b2", "shell")]),
        ("$  padded body  $", [("padded body", "shell")]),
        ("$MSFCONSOLE: search samba$", [("search samba", "msfconsole")]),
        ("$msfconsole : use x$", [("use x", "msfconsole")]),
        ("$echo msfconsole: hi$", [("echo msfconsole: hi", "shell")]),
        ("text $ls -la$ trailing", [("ls -la", "shell")]),
        ("'$whoami$'", [("whoami", "shell")]),
        ('$echo "a b"$', [('echo "a b"', "shell")]),
        ("$line one\nline two$", [("line one\nline two", "shell")]),
        ("unpaired $tail", []),
        ("$ok$ and $dangling", [("ok", "shell")]),
        ("$$", []),
        ("$ $", []),
        ("$msfconsole:$", []),
        (
            "$cmd1$ mid $msfconsole: run$ end $cmd2$",
            [("cmd1", "shell"), ("run", "msfconsole"), ("cmd2", "shell")],
        ),
        (
            "$msfconsole: use exploit/unix/ftp/vsftpd_234_backdoor; set RHOSTS 10.0.2.4; exploit$",
            [
                (
                    "use exploit/unix/ftp/vsftpd_234_backdoor; set RHOSTS 10.0.2.4; exploit",
                    "msfconsole",
                )
            ],
        ),
        ("$sleep 5$ $msfconsole: sessions -l$", [("sleep 5", "shell"), ("sessions -l", "msfconsole")]),
    ]
    assert len(command_cases) >= 20
    for text, expected in command_cases:
        commands, _ = parse_commands(text)
        assert [(c.raw, c.channel.value) for c in commands] == expected, text

    vector_ok = {
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H": 9.8,
        "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H": 9.8,
        "cvss:3.1/av:n/ac:l/pr:n/ui:n/s:u/c:h/i:h/a:h": 9.8,
        " CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:C/C:H/I:H/A:H ": 9.9,
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N": 0.0,
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L": 7.3,
        "CVSS:3.1/AV:P/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N/": 1.6,
    }
    for vector, score in vector_ok.items():
        assert cvss.parse_vector(vector).base_score == score, vector
    vector_bad = [
        "",
        "CVSS:2.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
        "AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
        "CVSS:3.1/",
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H",
        "CVSS:3.1/AC:L/AV:N/PR:N/UI:N/S:U/C:H/I:H/A:H",
        "CVSS:3.1/AV:N/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
        "CVSS:3.1/AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
        "CVSS:3.1/ZZ:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
        "CVSS:3.1/AVN/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
    ]
    assert len(vector_ok) + len(vector_bad) >= 15
    for vector in vector_bad:
        with pytest.raises(cvss.VectorParseError):
            cvss.parse_vector(vector)

    extractor_cases = [
        (
            "Exploited: CVE-2011-2523\nservice: ftp\nport: 21\ndescription: backdoor\nmethod: msf",
            [("CVE-2011-2523", "ftp", 21)],
        ),
        ("Exploited: CVE-NA\nservice: http\nport: 80", [("CVE-NA", "http", 80)]),
        ("Exploited: [backdoor/CVE-2011-2523]\nservice: ftp\nport: 21", [("CVE-2011-2523", "ftp", 21)]),
        ("exploited: cve-na\nservice: nfs\nport: 2049", [("CVE-NA", "nfs", 2049)]),
        (
            "Exploited: CVE-2011-2523\nservice: ftp\nport: 21\n\nExploited: CVE-NA\nservice: http\nport: 80",
            [("CVE-2011-2523", "ftp", 21), ("CVE-NA", "http", 80)],
        ),
        (
            "Exploited: CVE-NA\nservice: http\nport: 80\n\nExploited: CVE-NA\nservice: http\nport: 80",
            [("CVE-NA", "http", 80)],
        ),
        ("NONE", []),
        ("", []),
        ("Exploited: mystery weakness\nservice: x\nport: 1", []),
        ("Exploited: CVE-NA\nservice: x\nport: not-a-number", [("CVE-NA", "x", None)]),
        ("Exploited: CVE-NA\nservice: x\nport: 99999", [("CVE-NA", "x", None)]),
        ("Exploited: CVE-NA\nport: 80", [("CVE-NA", "unknown", 80)]),
    ]
    assert len(extractor_cases) >= 10
    for text, expected in extractor_cases:
        findings, _ = parse_extractor_blocks(text)
        assert [(f.id, f.service, f.port) for f in findings] == expected, text

    report(
        7,
        f"{len(command_cases)} command, {len(vector_ok) + len(vector_bad)} vector, "
        f"{len(extractor_cases)} extractor cases exact",
    )


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_retrieval_oracle():
    """100-chunk corpus: retrieval equals exhaustive scan for 50 queries."""
    rng = random.Random(20240319)
    vocab = [f"term{i}" for i in range(64)]
    kb = KnowledgeBase()
    corpus = []
    for d in range(100):
        text = " ".join(rng.choice(vocab) for _ in range(30))
        kb.ingest(text, f"d{d:03d}", chunk_size=600, overlap=0)
        corpus.append((f"d{d:03d}", 0, text))

    start = time.monotonic()
    for _ in range(50):
        k = rng.randint(1, 10)
        query = " ".join(rng.choice(vocab) for _ in range(6))
        expected = exact_scan(reference_counts, corpus, query, k)
        got = [(e.chunk.doc_id, e.chunk.seq, e.similarity.hex()) for e in kb.retrieve(query, k)]
        assert got == expected
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    report(8, f"50 queries over 100 chunks exact (ties included) in {elapsed:.2f}s")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_simulator_walkthroughs():
    """All ten weaknesses reachable; scans list exactly the ten ports."""
    host = load_host_model()
    target = host.address

    def msf(batch):
        return Command(batch, CommandChannel.MSFCONSOLE)

    walkthroughs = {
        "ftp-backdoor": [msf(f"use exploit/unix/ftp/vsftpd_234_backdoor; set RHOSTS {target}; exploit")],
        "weak-passwords": [Command(f"sshpass -p msfadmin ssh msfadmin@{target} id")],
        "telnet-default-creds": [
            msf(
                f"use auxiliary/scanner/telnet/telnet_login; set RHOSTS {target}; "
                "set USERNAME msfadmin; set PASSWORD msfadmin; run"
            )
        ],
        "smtp-open-port": [Command(f"nc {target} 25")],
        "dns-poisoning": [Command(f"dig @{target} version.bind chaos txt")],
        "http-sql-injection": [
            Command(
                f"curl \"http://{target}/mutillidae/index.php?page=user-info.php"
                "&username=' OR '1'='1\""
            )
        ],
        "nfs-root-access": [
            Command(f"showmount -e {target}"),
            Command(f"mount -t nfs {target}:/ /mnt/nfs"),
        ],
        "irc-backdoor": [msf(f"use exploit/unix/irc/unreal_ircd_3281_backdoor; set RHOST {target}; exploit")],
        "samba-symlink": [msf(f"use exploit/multi/samba/usermap_script; set RHOSTS {target}; exploit")],
        "php-cgi-injection": [msf(f"use exploit/multi/http/php_cgi_arg_injection; set RHOSTS {target}; exploit")],
    }

    def reached(output):
        return {w.row_id for w in host.weakness_rows() if w.description in output}

    def run_once():
        outputs = []
        for commands in walkthroughs.values():
            assert len(commands) <= 6
            outputs.append([SimulatorBackend(host).run(command)[0] for command in commands])
        return outputs

    outputs = run_once()
    assert outputs == run_once()  # determinism
    # Reachability as the pipeline sees it: the last output names the weakness.
    assert [reached(o[-1]) for o in outputs] == [{row_id} for row_id in walkthroughs]
    assert set(walkthroughs) == {w.row_id for w in host.weakness_rows()}
    assert len(walkthroughs) == 10
    miss = SimulatorBackend(host).run(
        msf(f"use exploit/unix/misc/made_up; set RHOSTS {target}; exploit"))[0]
    assert reached(miss) == set()

    scan = SimulatorBackend(host).run(Command(f"nmap -p- {target}"))[0]
    ports = {int(m) for m in re.findall(r"^(\d+)/tcp", scan, re.MULTILINE)}
    assert ports == {21, 22, 23, 25, 53, 80, 2049, 3306, 5432, 6667}
    report(9, "10/10 weaknesses reached; scan lists exactly the 10 ports; deterministic")
