"""Seeded workload generators and the correctness checks that go with them.

Each generator writes only program inputs (config, host model, corpus or
index, replay transcript, NVD fixture directory, input artifact, ground
truth) into a work directory and returns a spec: the paths, the CLI
command for one run, and what a correct run must produce. The replay
transcripts are recorded by driving the real pipeline with
``ScriptedBackend`` under ``record_mode``, the same way the bundled
fixtures are built.

Generation is preparation; nothing here is timed.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

WORKLOADS = ("golden", "wide_remediate", "deep_pentest")

GOLDEN_TARGET = "10.0.2.4"
GOLDEN_ROLE_CALLS = {
    "Planner": 23, "Evaluator": 15, "Summarizer": 9, "Extractor": 9,
    "Executor": 8, "Advisor": 6, "Estimator": 4,
}
GOLDEN_OVERALL = 4.0833

# Service names that never occur as a whole word inside one another, so the
# engine's counterfactual check (word match on the service name) only ever
# touches the task written for that service.
SERVICE_POOL = (
    "vsftpd", "openssh", "telnetd", "postfix", "bind9", "apache", "rpcbind",
    "samba", "rexecd", "rlogind", "rshd", "rmiregistry", "ingreslock", "nfsd",
    "proftpd", "mysqld", "distccd", "postgres", "vncserver", "xorg",
    "unrealircd", "tomcat", "jetty", "redis", "memcached", "mongodb",
    "elasticsearch", "couchdb", "rabbitmq", "mosquitto", "zookeeper", "kafka",
    "cassandra", "influxdb", "grafana", "jenkins", "gitlab", "nagios",
    "zabbix", "squid", "haproxy", "nginx", "lighttpd", "dovecot", "cyrus",
    "exim", "sendmail", "openldap", "kerberos", "ntpd", "snmpd", "tftpd",
    "cupsd", "avahi", "asterisk", "openvpn", "wireguard", "consul", "vault",
    "etcd", "dockerd", "kubelet", "minio", "solr", "activemq",
)

FIX_ACTIONS = (
    "Upgrade {svc} to the current vendor release: sudo apt-get install --only-upgrade {svc}",
    "Restrict port {port} to the management network: ufw deny {port}/tcp",
    "Rotate every credential used by {svc} and enforce a strong password policy",
    "Enable verbose audit logging for {svc} and forward it to the central collector",
    "Disable the {svc} service until a patched build is available: systemctl disable --now {svc}",
    "Run {svc} under a dedicated unprivileged account with a read-only root filesystem",
    "Put {svc} behind an authenticating reverse proxy with rate limits",
    "Apply the vendor hardening guide for {svc} and remove the unused modules",
)

TECHNIQUES = (
    "banner grabbing", "version fingerprinting", "default credential checks",
    "anonymous login probes", "directory brute forcing", "command injection",
    "path traversal", "weak cipher negotiation", "unauthenticated API access",
    "deserialization payloads", "backdoored release archives", "buffer overflows",
    "privilege escalation through setuid binaries", "password spraying",
    "cleartext protocol sniffing", "misconfigured export lists",
)


# ---------------------------------------------------------------------------
# CVSS v3.1 base score, written from the specification (section 7.1) so the
# generated NVD records do not borrow the arithmetic they will be checked by.
# ---------------------------------------------------------------------------

_AV = {"N": 0.85, "A": 0.62, "L": 0.55, "P": 0.2}
_AC = {"L": 0.77, "H": 0.44}
_PR = {"U": {"N": 0.85, "L": 0.62, "H": 0.27}, "C": {"N": 0.85, "L": 0.68, "H": 0.5}}
_UI = {"N": 0.85, "R": 0.62}
_CIA = {"H": 0.56, "L": 0.22, "N": 0.0}


def _roundup(value: float) -> float:
    as_int = round(value * 100000)
    if as_int % 10000 == 0:
        return as_int / 100000.0
    return (math.floor(as_int / 10000) + 1) / 10.0


def cvss31_score(metrics: dict) -> float:
    iss = 1 - (1 - _CIA[metrics["C"]]) * (1 - _CIA[metrics["I"]]) * (1 - _CIA[metrics["A"]])
    scope = metrics["S"]
    if scope == "U":
        impact = 6.42 * iss
    else:
        impact = 7.52 * (iss - 0.029) - 3.25 * (iss - 0.02) ** 15
    exploitability = 8.22 * _AV[metrics["AV"]] * _AC[metrics["AC"]] * _PR[scope][metrics["PR"]] * _UI[metrics["UI"]]
    if impact <= 0:
        return 0.0
    if scope == "U":
        return _roundup(min(impact + exploitability, 10))
    return _roundup(min(1.08 * (impact + exploitability), 10))


def random_vector(rng: random.Random) -> tuple[str, float]:
    """A random base vector with a positive score, and that score."""
    while True:
        m = {
            "AV": rng.choice("NALP"), "AC": rng.choice("LH"), "PR": rng.choice("NLH"),
            "UI": rng.choice("NR"), "S": rng.choice("UC"),
            "C": rng.choice("HLN"), "I": rng.choice("HLN"), "A": rng.choice("HLN"),
        }
        score = cvss31_score(m)
        if score > 0:
            order = ("AV", "AC", "PR", "UI", "S", "C", "I", "A")
            return "CVSS:3.1/" + "/".join(f"{k}:{m[k]}" for k in order), score


def nvd_record(cve_id: str, vector: str, score: float, description: str) -> dict:
    """An NVD 2.0 API response carrying one CVE with a v3.1 vector."""
    return {
        "resultsPerPage": 1, "startIndex": 0, "totalResults": 1,
        "format": "NVD_CVE", "version": "2.0", "timestamp": "2024-03-18T09:12:41.110",
        "vulnerabilities": [{"cve": {
            "id": cve_id,
            "descriptions": [{"lang": "en", "value": description}],
            "metrics": {"cvssMetricV31": [{"cvssData": {
                "version": "3.1", "vectorString": vector, "baseScore": score,
            }}]},
        }}],
    }


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


class PlanScript:
    """Plan state of the scripted planner, rendered one task per line."""

    def __init__(self):
        self.order: list[str] = []
        self.entries: dict[str, list] = {}

    def add(self, task_id: str, description: str) -> None:
        self.order.append(task_id)
        self.entries[task_id] = [description, "to-do", None]

    def mark(self, task_id: str, result: str) -> None:
        self.entries[task_id][1:] = ["completed", result]

    def render(self) -> str:
        lines = []
        for task_id in self.order:
            description, status, result = self.entries[task_id]
            line = f"{'  ' * task_id.count('.')}{task_id} {description} [{status}]"
            if result:
                line += f" - result: {result}"
            lines.append(line)
        return "\n".join(lines)


def _cve_ids(rng: random.Random, count: int) -> list[str]:
    # Fixed-width numbers: no id is a substring of another.
    numbers = rng.sample(range(10000, 100000), count)
    return [f"CVE-{rng.randint(2008, 2023)}-{n}" for n in numbers]


def _corpus_doc(rng: random.Random, names: list[str], index: int, size: int) -> str:
    paragraphs = []
    while sum(len(p) + 2 for p in paragraphs) < size:
        svc = rng.choice(names)
        port = rng.randint(1, 65535)
        tech = rng.choice(TECHNIQUES)
        other = rng.choice(TECHNIQUES)
        paragraphs.append(
            f"Note {index}.{len(paragraphs) + 1}: attacking {svc}. Start with {tech} against "
            f"port {port}, then confirm the finding with {other}. A typical module is "
            f"exploit/linux/misc/{svc}_{rng.randint(100, 999)}; set RHOSTS to the target and "
            f"run it. Record the exact version string of {svc} before exploitation, because "
            f"later steps reuse it, and check whether {tech} also works on neighbouring ports."
        )
    return "\n\n".join(paragraphs)[:size]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _candidate_script(rng: random.Random, findings: list, counts: list[int]):
    """Advisor lists and evaluator replies for every finding's candidates.

    Effects and cost tiers come from fixed multisets (2:2:1 full, partial,
    zero; 1:1:1 low, moderate, high); the seed draws only their order and
    the partial percentages. So the knapsack gets the same number of items
    of each weight on every seed, and its work does not vary with the seed.
    """
    total = sum(counts)
    effects = [("full", "full", "partial", "partial", "zero")[i % 5] for i in range(total)]
    costs = [("low", "moderate", "high")[i % 3] for i in range(total)]
    rng.shuffle(effects)
    rng.shuffle(costs)
    advisor, evaluator = [], []
    for finding, count in zip(findings, counts):
        actions = rng.sample(FIX_ACTIONS, count)
        items = []
        for j, action in enumerate(actions, start=1):
            text = action.format(svc=finding.service, port=finding.port)
            items.append(f"{j}. {text} [{finding.key_str} fix {j}]")
            effect = effects.pop()
            if effect == "partial":
                effect = f"partial {rng.randrange(10, 100, 10)}%"
            evaluator.append(f"effect: {effect}\ncost: {costs.pop()}")
        advisor.append("\n".join(items))
    return advisor, evaluator


def _finding_vectors(rng, findings, nvd_dir: Path):
    """NVD records for public ids, estimator replies for CVE-NA ones."""
    from penheal.model import CVE_NA

    estimator = []
    nvd_dir.mkdir(parents=True, exist_ok=True)
    for finding in findings:
        vector, score = random_vector(rng)
        if finding.id == CVE_NA:
            estimator.append(vector)
        else:
            _write_json(
                nvd_dir / f"{finding.id}.json",
                nvd_record(finding.id, vector, score, f"{finding.service} weakness {finding.id}"),
            )
    return estimator


def _record(scripts, transcript: Path, drive):
    """Run ``drive(gateway)`` against scripted responses, recording every exchange."""
    from penheal.gateway import ScriptedBackend, record_mode

    backend = ScriptedBackend(scripts)
    result = drive(record_mode(backend, transcript))
    left = backend.remaining()
    if left:
        raise RuntimeError(f"scripted responses left unused: {left}")
    return result


def _group_counts(rng: random.Random, groups: int) -> list[int]:
    # A fixed multiset of 2/3/4 candidates per group keeps call counts
    # identical across seeds; only the order is drawn.
    counts = [2 + i % 3 for i in range(groups)]
    rng.shuffle(counts)
    return counts


# ---------------------------------------------------------------------------
# golden: the bundled reference run
# ---------------------------------------------------------------------------


def gen_golden(seed: int, work: Path) -> dict:
    out = work / "cli-out"
    return {
        "workload": "golden",
        "kind": "run",
        "config": None,
        "target": GOLDEN_TARGET,
        "out_dir": str(out),
        "cli": ["run", "--mode", "hermetic", "--target", GOLDEN_TARGET, "--out", str(out)],
        "expect": {
            "exit": 0,
            "findings": 6,
            "overall": GOLDEN_OVERALL,
            "model_calls": sum(GOLDEN_ROLE_CALLS.values()),
            "role_calls": GOLDEN_ROLE_CALLS,
            "termination": "plan-exhausted",
        },
    }


# ---------------------------------------------------------------------------
# wide_remediate: remediation of golden x10 findings
# ---------------------------------------------------------------------------

WIDE_FINDINGS = 60
WIDE_PUBLIC = 30


def gen_wide_remediate(seed: int, work: Path) -> dict:
    from penheal import knowledge
    from penheal.cli import load_config
    from penheal.model import (
        AttackPlan, RunConfig, TaskNode, TaskStatus, Vulnerability, deserialize_run, serialize_run,
    )
    from penheal.remediation import remediate
    from penheal.nvd import FixtureNvdClient

    rng = random.Random(f"wide_remediate:{seed}")
    target = f"10.0.{rng.randint(3, 250)}.{rng.randint(2, 250)}"
    names = rng.sample(SERVICE_POOL, WIDE_FINDINGS)
    ports = rng.sample(range(1024, 65000), WIDE_FINDINGS)
    public = set(rng.sample(range(WIDE_FINDINGS), WIDE_PUBLIC))
    ids = iter(_cve_ids(rng, WIDE_PUBLIC))
    findings = [
        Vulnerability(
            id=next(ids) if i in public else "CVE-NA",
            service=names[i],
            port=ports[i],
            description=f"{rng.choice(TECHNIQUES)} against {names[i]} succeeded",
            exploitation_method=f"exploit/linux/misc/{names[i]}_{rng.randint(100, 999)}",
        )
        for i in range(WIDE_FINDINGS)
    ]

    nvd_dir = work / "nvd"
    estimator = _finding_vectors(rng, findings, nvd_dir)
    counts = _group_counts(rng, WIDE_FINDINGS)
    advisor, evaluator = _candidate_script(rng, findings, counts)

    host = {
        "address": target, "hostname": "wide",
        "credentials": [["admin", "admin"]],
        "services": [
            {"name": f.service, "port": f.port, "banner": f"{f.service} 1.{i}", "visible": True}
            for i, f in enumerate(findings)
        ],
    }
    _write_json(work / "host.json", host)
    _write_json(work / "truth.json", [f.to_dict() for f in findings])

    corpus = work / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    kb = knowledge.KnowledgeBase()
    text = _corpus_doc(rng, names, 0, 4800)
    (corpus / "notes-000.txt").write_text(text, encoding="utf-8")
    kb.ingest(text, doc_id="notes-000")
    kb.save(work / "index")

    plan = AttackPlan(roots=tuple(
        TaskNode(id=str(n), description=phase, status=TaskStatus.COMPLETED, result_summary="done")
        for n, phase in enumerate(("Reconnaissance", "Scanning", "Exploitation"), start=1)
    ))
    artifact = work / "artifact.json"
    artifact.write_bytes(serialize_run(plan, findings, [], None, run_id="wide-input"))

    transcript = work / "transcript.jsonl"
    out = work / "cli-out"
    config_path = work / "config.json"
    _write_json(config_path, {
        "target_address": target,
        "mode": "hermetic",
        "fixtures": str(transcript),
        "host_model": str(work / "host.json"),
        "kb_dir": str(work / "index"),
        "nvd": {"fixture_dir": str(nvd_dir)},
        "truth": str(work / "truth.json"),
        "budget_per_vuln": 4.0,
    })

    from penheal.gateway import AgentRole
    scripts = {
        AgentRole.ESTIMATOR: estimator,
        AgentRole.ADVISOR: advisor,
        AgentRole.EVALUATOR: evaluator,
    }
    config = RunConfig.from_dict(load_config(str(config_path), {}))
    _, replayed, _, _ = deserialize_run(artifact.read_bytes())
    rem = _record(scripts, transcript, lambda gw: remediate(
        replayed, config, gw, FixtureNvdClient(nvd_dir)))
    if rem.warnings:
        raise RuntimeError(f"wide_remediate generation warned: {rem.warnings}")

    return {
        "workload": "wide_remediate",
        "kind": "remediate",
        "config": str(config_path),
        "artifact": str(artifact),
        "target": target,
        "out_dir": str(out),
        "cli": ["remediate", str(artifact), "--config", str(config_path), "--out", str(out)],
        "expect": {
            "exit": 0,
            "findings": WIDE_FINDINGS,
            "candidates": sum(counts),
            "model_calls": len(estimator) + len(advisor) + len(evaluator),
            "role_calls": {
                "Estimator": len(estimator), "Advisor": len(advisor), "Evaluator": len(evaluator),
            },
            "budget": 4.0 * WIDE_FINDINGS,
            "termination": None,
        },
    }


# ---------------------------------------------------------------------------
# deep_pentest: a long discovery loop against a large host and corpus
# ---------------------------------------------------------------------------

DEEP_SERVICES = 40
DEEP_FOUND = 10  # one new finding every third iteration
DEEP_PROBES = 2 * DEEP_FOUND  # with the opening scan: 31 iterations
DEEP_PUBLIC = 5
DEEP_HIDDEN = 3  # weaknesses in the ground truth that the run does not find
DEEP_DOCS = 100  # golden corpus x100: 100 documents of 8 chunks
DEEP_DOC_CHARS = 4800


def gen_deep_pentest(seed: int, work: Path) -> dict:
    from penheal import knowledge
    from penheal.cli import load_config
    from penheal.engine import run_pentest
    from penheal.gateway import AgentRole
    from penheal.model import RunConfig, Vulnerability
    from penheal.nvd import FixtureNvdClient
    from penheal.remediation import remediate
    from penheal.simulator import SimulatorBackend, load_host_model

    rng = random.Random(f"deep_pentest:{seed}")
    target = f"10.0.{rng.randint(3, 250)}.{rng.randint(2, 250)}"
    names = rng.sample(SERVICE_POOL, DEEP_SERVICES)
    ports = rng.sample(range(1024, 65000), DEEP_SERVICES)
    # Exploited services are the first DEEP_FOUND, hidden weaknesses the next ones.
    public = set(rng.sample(range(DEEP_FOUND), DEEP_PUBLIC))
    ids = _cve_ids(rng, DEEP_FOUND + DEEP_HIDDEN)
    weak = []
    for i in range(DEEP_FOUND + DEEP_HIDDEN):
        weak.append({
            "row_id": f"row-{names[i]}",
            "cve": ids[i] if (i in public or i >= DEEP_FOUND) else "CVE-NA",
            "module": f"exploit/linux/misc/{names[i]}_{rng.randint(100, 999)}",
            "description": f"{rng.choice(TECHNIQUES)} against {names[i]}",
        })

    services = []
    for i, (name, port) in enumerate(zip(names, ports)):
        svc = {"name": name, "port": port, "banner": f"{name} {rng.randint(1, 9)}.{rng.randint(0, 20)}",
               "visible": True}
        if i < len(weak):
            w = weak[i]
            svc["weaknesses"] = [{
                "row_id": w["row_id"], "cve": w["cve"], "effect": rng.choice(("shell", "root-shell")),
                "canonical_service": name, "canonical_port": port,
                "description": w["description"], "method": f"msfconsole {w['module']}",
                "triggers": [w["module"]],
            }]
        services.append(svc)
    _write_json(work / "host.json", {
        "address": target, "hostname": "deep",
        "credentials": [["admin", "admin"], ["user", "user"]],
        "services": services,
    })

    found = [
        Vulnerability(id=weak[i]["cve"], service=names[i], port=ports[i],
                      description=weak[i]["description"], exploitation_method=weak[i]["module"])
        for i in range(DEEP_FOUND)
    ]
    truth = found + [
        Vulnerability(id=weak[i]["cve"], service=names[i], port=ports[i],
                      description=weak[i]["description"])
        for i in range(DEEP_FOUND, DEEP_FOUND + DEEP_HIDDEN)
    ]
    _write_json(work / "truth.json", [v.to_dict() for v in truth])

    # Corpus and its index: ingest + save here; the runs load it.
    corpus = work / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    kb = knowledge.KnowledgeBase()
    for d in range(DEEP_DOCS):
        text = _corpus_doc(rng, names, d, DEEP_DOC_CHARS)
        (corpus / f"notes-{d:03d}.txt").write_text(text, encoding="utf-8")
        kb.ingest(text, doc_id=f"notes-{d:03d}")
    kb.save(work / "index")

    # Iteration schedule: scan first, an exploit every third iteration, probes between.
    probes = list(range(DEEP_FOUND, DEEP_SERVICES))
    rng.shuffle(probes)
    probes = probes[:DEEP_PROBES]
    schedule = [("scan", None)]
    exploit_no, probe_no = 0, 0
    while exploit_no < DEEP_FOUND or probe_no < len(probes):
        if len(schedule) % 3 == 2 and exploit_no < DEEP_FOUND:
            schedule.append(("exploit", exploit_no))
            exploit_no += 1
        else:
            schedule.append(("probe", probes[probe_no]))
            probe_no += 1

    plan = PlanScript()
    plan.add("1", "Reconnaissance")
    plan.add("1.1", f"Scan open ports and running services on {target}")
    plan.add("2", "Probing")
    probe_ids = {}
    for n, i in enumerate(probes, start=1):
        probe_ids[i] = f"2.{n}"
        plan.add(f"2.{n}", f"Probe the {names[i]} listener on port {ports[i]} for weaknesses")
    plan.add("3", "Exploitation")

    def exploit_task(j: int) -> tuple[str, str]:
        return f"3.{j + 1}", f"Exploit {names[j]} on port {ports[j]} with {weak[j]['module']}"

    plan.add(*exploit_task(0))
    planner = [plan.render()]
    executor, summarizer, extractor = [], [], []

    def block(v: Vulnerability) -> str:
        return (f"Exploited: {v.id}\nservice: {v.service}\nport: {v.port}\n"
                f"description: {v.description}\nmethod: {v.exploitation_method}")

    probes_left = len(probes)
    for kind, i in schedule:
        if kind == "scan":
            task_id = "1.1"
            executor.append(f"Map the attack surface first.\n$nmap -sV {target}$")
            summarizer.append(f"{DEEP_SERVICES} open TCP ports on {target}: "
                              + ", ".join(f"{p}/{n}" for n, p in zip(names, ports)))
            extractor.append("NONE")
            result = f"{DEEP_SERVICES} open ports found, versions recorded"
            plan.mark("1.1", result)
            plan.mark("1", "reconnaissance complete")
        elif kind == "probe":
            task_id = probe_ids[i]
            executor.append(f"Grab the banner of {names[i]}.\n$nc -nv {target} {ports[i]}$")
            summarizer.append(f"{names[i]} on port {ports[i]} answers with its banner; no "
                              f"weakness confirmed by {rng.choice(TECHNIQUES)}.")
            extractor.append("NONE")
            plan.mark(task_id, f"banner recorded for {names[i]}, nothing exploitable yet")
            probes_left -= 1
            if probes_left == 0:
                plan.mark("2", "probing complete")
        else:
            task_id, _ = exploit_task(i)
            executor.append(f"Using the dedicated module.\n$msfconsole: use {weak[i]['module']}; "
                            f"set RHOSTS {target}; exploit$")
            summarizer.append(f"Exploit against {names[i]} on port {ports[i]} opened a session; "
                              f"{weak[i]['description']} confirmed.")
            extractor.append(block(found[i]))
            plan.mark(task_id, f"session opened on {names[i]}")
        planner.append(task_id)
        planner.append(plan.render())  # update
        if kind == "exploit":
            if i + 1 < DEEP_FOUND:
                plan.add(*exploit_task(i + 1))
            else:
                plan.mark("3", "all identified attack paths exercised")
            planner.append(plan.render())  # counterfactual re-plan
    extractor.append("\n\n".join(block(v) for v in found))  # final pass

    nvd_dir = work / "nvd"
    estimator = _finding_vectors(rng, found, nvd_dir)
    counts = _group_counts(rng, DEEP_FOUND)
    advisor, evaluator = _candidate_script(rng, found, counts)

    transcript = work / "transcript.jsonl"
    out = work / "cli-out"
    config_path = work / "config.json"
    max_iterations = len(schedule) + 10
    _write_json(config_path, {
        "target_address": target,
        "mode": "hermetic",
        "fixtures": str(transcript),
        "host_model": str(work / "host.json"),
        "kb_dir": str(work / "index"),
        "nvd": {"fixture_dir": str(nvd_dir)},
        "truth": str(work / "truth.json"),
        "max_iterations": max_iterations,
        "budget_per_vuln": 4.0,
    })
    scripts = {
        AgentRole.PLANNER: planner, AgentRole.EXECUTOR: executor,
        AgentRole.SUMMARIZER: summarizer, AgentRole.EXTRACTOR: extractor,
        AgentRole.ESTIMATOR: estimator, AgentRole.ADVISOR: advisor,
        AgentRole.EVALUATOR: evaluator,
    }
    config = RunConfig.from_dict(load_config(str(config_path), {}))
    host = load_host_model(work / "host.json")

    def drive(gw):
        pentest = run_pentest(config, SimulatorBackend(host), gw, kb)
        rem = remediate(pentest.findings, config, gw, FixtureNvdClient(nvd_dir))
        return pentest, rem

    pentest, rem = _record(scripts, transcript, drive)
    if pentest.warnings or rem.warnings:
        raise RuntimeError(f"deep_pentest generation warned: {pentest.warnings + rem.warnings}")
    if pentest.termination_reason != "plan-exhausted":
        raise RuntimeError(f"deep_pentest generation ended by {pentest.termination_reason}")

    return {
        "workload": "deep_pentest",
        "kind": "run",
        "config": str(config_path),
        "target": target,
        "out_dir": str(out),
        "cli": ["run", "--config", str(config_path), "--out", str(out)],
        "corpus_dir": str(corpus),
        "expect": {
            "exit": 0,
            "findings": DEEP_FOUND,
            "finding_keys": [v.key_str for v in found],
            "termination": "plan-exhausted",
            "candidates": sum(counts),
            "model_calls": sum(len(s) for s in scripts.values()),
            "role_calls": {role.value: len(s) for role, s in scripts.items()},
            "budget": 4.0 * DEEP_FOUND,
        },
    }


GENERATORS = {
    "golden": gen_golden,
    "wide_remediate": gen_wide_remediate,
    "deep_pentest": gen_deep_pentest,
}


def generate(workload: str, seed: int, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    spec = GENERATORS[workload](seed, work)
    spec["seed"] = seed
    spec["work"] = str(work)
    _write_json(work / "spec.json", spec)
    return spec


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def knapsack_oracle_cents(groups: list[list[tuple[int, int]]], capacity: int) -> int:
    """Best total value (cents) with at most one (weight, cents) item per group."""
    best = [0] * (capacity + 1)
    for items in groups:
        items = [(w, v) for w, v in items if v > 0 and w <= capacity]
        if not items:
            continue
        new = best[:]
        for w, v in items:
            for c in range(w, capacity + 1):
                cand = best[c - w] + v
                if cand > new[c]:
                    new[c] = cand
        best = new
    return best[capacity]


def normalized_artifact(raw: bytes) -> bytes:
    """Artifact bytes with the wall-clock ``created_at`` value blanked."""
    return re.sub(rb'"created_at": "[^"]*"', b'"created_at": ""', raw, count=1)


def check_artifact(spec: dict, doc: dict) -> list[str]:
    """Problems with one run artifact of the workload (empty when correct)."""
    expect = spec["expect"]
    problems = []
    findings = doc.get("findings") or []
    if len(findings) != expect["findings"]:
        problems.append(f"{len(findings)} findings, expected {expect['findings']}")
    if "finding_keys" in expect:
        keys = [f"{f['id'].upper()}@{f['service'].strip().lower()}:{f['port']}" for f in findings]
        if keys != expect["finding_keys"]:
            problems.append("reported findings differ from the generated ones")
    report = doc.get("score_report") or {}
    if "overall" in expect and round(report.get("s_overall", -1.0), 4) != expect["overall"]:
        problems.append(f"overall {report.get('s_overall')} != {expect['overall']}")
    if "candidates" in expect:
        problems.extend(_check_selection(spec, doc))
    return problems


def _check_selection(spec: dict, doc: dict) -> list[str]:
    expect = spec["expect"]
    recs = doc.get("recommendations") or []
    if len(recs) != expect["candidates"]:
        return [f"{len(recs)} candidates, expected {expect['candidates']}"]
    groups: dict[str, list[dict]] = {}
    for rec in recs:
        groups.setdefault(rec["target_vuln_ids"][0], []).append(rec)
    problems = []
    adopted = [r for r in recs if r["status"] == "adopted"]
    per_group = [sum(r["status"] == "adopted" for r in g) for g in groups.values()]
    if max(per_group, default=0) > 1:
        problems.append("a group has more than one adopted candidate")
    cost = sum(r["cost"] for r in adopted)
    if cost > expect["budget"] + 1e-9:
        problems.append(f"adopted cost {cost} exceeds budget {expect['budget']}")
    oracle = knapsack_oracle_cents(
        [[(round(r["cost"] * 10), round(r["value"] * 100)) for r in g] for g in groups.values()],
        round(expect["budget"] * 10),
    )
    value = sum(r["value"] for r in adopted)
    if abs(value - oracle / 100) > 0.005:
        problems.append(f"adopted value {value:.2f} differs from the optimum {oracle / 100:.2f}")
    return problems
