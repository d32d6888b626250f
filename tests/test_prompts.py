"""The re-ask protocol every parsing agent follows.

An agent whose reply does not parse is asked exactly once more: the same
history plus its reply and the role's correction prompt. Each case pins the
exact messages of every request, the full warning list in order, and the
value the caller keeps (the parsed one, or its fallback).
"""

import pytest

from penheal.engine import run_pentest
from penheal.gateway import AgentRole, Gateway
from penheal.model import CostPolicy, CvssMetrics, Recommendation, RunConfig, Vulnerability
from penheal.prompts import (
    VALUE_RULES_TEXT,
    cost_rules_text,
    format_vulns_inline,
    render_prompt,
)
from penheal.remediation import advise, estimate_vector, evaluate

TASK = "Scan the target"
FINDING = Vulnerability(id="CVE-NA", service="http", port=80, description="sqli",
                        cvss=CvssMetrics("N", "L", "N", "N", "U", "H", "H", "H", 9.8))
RECOMMENDATION = Recommendation(text="Patch the web app", target_vuln_ids=(FINDING.key_str,))
GOOD_VECTOR = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"

RETRY_TURNS = {
    AgentRole.EXECUTOR: (
        'No command could be parsed from your reply. Remember guideline (1): commands '
        'must start and end with "$". Give the command(s) for the task again.'
    ),
    AgentRole.ESTIMATOR: (
        "That vector string could not be parsed: vector must start with one of "
        "CVSS:3.0, CVSS:3.1: 'not a vector'\nOutput only a corrected vector string."
    ),
    AgentRole.ADVISOR: (
        'Your reply could not be parsed. Output a numbered list, one recommendation '
        'per item, each starting with "<number>. ".'
    ),
    AgentRole.EVALUATOR: (
        "Your reply could not be parsed. Reply with exactly the lines described:\n"
        "effect: full | partial <k>% | zero | negative <k>%\n"
        "cost: low | moderate | high | <number between 0 and 10>"
    ),
}

# Per role: (a reply that parses, a reply that does not, a different one that does not).
REPLIES = {
    AgentRole.EXECUTOR: ("$ nmap -sV 10.0.2.4 $", "$ $", "try $ this"),
    AgentRole.ESTIMATOR: (GOOD_VECTOR, "not a vector", "CVSS:3.1/AV:N"),
    AgentRole.ADVISOR: ("1. Patch the web app", "no list here", "still no list"),
    AgentRole.EVALUATOR: ("effect: full\ncost: low", "maybe", "perhaps"),
}


class RecordingBackend:
    """Per-role scripted replies; logs each request's (role_tag, content) messages."""

    def __init__(self, scripts):
        self.scripts = {role: list(replies) for role, replies in scripts.items()}
        self.requests = {role: [] for role in AgentRole}

    def complete(self, role, model, messages):
        self.requests[role].append([(t.role_tag.value, t.content) for t in messages])
        return self.scripts[role].pop(0)


def first_history(role):
    """The [system, user] history of the first request each role makes here."""
    if role is AgentRole.EXECUTOR:
        system = render_prompt(role, {"task": TASK}, "system")
        user = (f"Here is a brief introduction to the task: {TASK}. Here is some info "
                "from the knowledge base for your reference:\n")
    elif role is AgentRole.ESTIMATOR:
        system = render_prompt(role, {}, "system")
        user = render_prompt(role, {"finding": "CVE-NA on http port 80", "context": "sqli"},
                             "estimate")
    elif role is AgentRole.ADVISOR:
        system = render_prompt(role, {}, "system")
        user = render_prompt(role, {"finding": FINDING.key_str, "score": "9.8",
                                    "vector": FINDING.cvss.vector_string(),
                                    "description": "sqli"}, "advise")
    else:
        system = render_prompt(role, {"vulns": format_vulns_inline([FINDING]),
                                      "value_def": VALUE_RULES_TEXT,
                                      "cost_def": cost_rules_text(CostPolicy())}, "system")
        user = render_prompt(role, {"recommendation": RECOMMENDATION.text}, "evaluate")
    return [("system", system), ("user", user)]


class _Host:
    def run(self, command):
        return "80/tcp open http", 0


def call(role, replies):
    """Drive the role's agent; returns (backend, warnings, the value the caller keeps)."""
    scripts = {role: list(replies)}
    if role is AgentRole.EXECUTOR:
        scripts.update({
            AgentRole.PLANNER: ["1 Scan the target [to-do]", "1",
                                "1 Scan the target [completed] - result: http open"],
            AgentRole.SUMMARIZER: ["http is open"],
            AgentRole.EXTRACTOR: ["NONE", "NONE"],
        })
    backend = RecordingBackend(scripts)
    gateway = Gateway(backend)
    if role is AgentRole.EXECUTOR:
        result = run_pentest(RunConfig(target_address="10.0.2.4", max_iterations=1),
                             _Host(), gateway)
        task = result.plan.find("1")
        value = ([r.command.raw for r in result.history.records], task.status.value,
                 task.result_summary)
        warnings = result.warnings
    elif role is AgentRole.ESTIMATOR:
        metrics, warnings = estimate_vector(FINDING._replace(cvss=None), "sqli", gateway)
        value = metrics.vector_string()
    elif role is AgentRole.ADVISOR:
        groups, warnings = advise([FINDING], gateway)
        value = [[c.text for c in g.candidates] for g in groups]
    else:
        scored, warnings = evaluate(RECOMMENDATION, [FINDING], CostPolicy(), gateway)
        value = (scored.cost, scored.value, scored.rationale)
    return backend, warnings, value


PARSED = {
    AgentRole.EXECUTOR: (["nmap -sV 10.0.2.4"], "completed", "http open"),
    AgentRole.ESTIMATOR: GOOD_VECTOR,
    AgentRole.ADVISOR: [["Patch the web app"]],
    AgentRole.EVALUATOR: (2.0, 9.8, "effect: full\ncost: low"),
}
FALLBACK = {
    AgentRole.EXECUTOR: ([], "failed", "no executable command produced"),
    AgentRole.ESTIMATOR: "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:L/A:L",
    AgentRole.ADVISOR: [],
    AgentRole.EVALUATOR: (5.0, 0.0, "evaluation unparseable; conservative default applied"),
}
# Per role: the warnings of the first bad reply, of the second, and of giving up.
WARNINGS = {
    AgentRole.EXECUTOR: (["empty command between $ delimiters"],
                         ["unpaired $ delimiter near: 'this'"],
                         ["1: executor produced no command twice"]),
    AgentRole.ESTIMATOR: (
        ["CVE-NA@http:80: estimator vector rejected: vector must start with one of "
         "CVSS:3.0, CVSS:3.1: 'not a vector'"],
        ["CVE-NA@http:80: estimator vector rejected: missing metrics: AC, PR, UI, S, C, I, A"],
        ["CVE-NA@http:80: applied conservative default vector"]),
    AgentRole.ADVISOR: ([], [], ["CVE-NA@http:80: advisor output unparseable, group dropped"]),
    AgentRole.EVALUATOR: (["unparseable evaluation reply: 'maybe'"],
                          ["unparseable evaluation reply: 'perhaps'"],
                          ["evaluation failed twice; defaulting to zero value, moderate cost"]),
}


@pytest.mark.parametrize("role", list(RETRY_TURNS), ids=lambda r: r.value)
@pytest.mark.parametrize("case", ["first-parses", "retry-parses", "both-fail"])
def test_reask_protocol(role, case):
    good, bad, worse = REPLIES[role]
    replies = {"first-parses": [good], "retry-parses": [bad, good], "both-fail": [bad, worse]}
    backend, warnings, value = call(role, replies[case])

    first = first_history(role)
    retried = first + [("assistant", bad), ("user", RETRY_TURNS[role])]
    expected_requests = [first] if case == "first-parses" else [first, retried]
    assert backend.requests[role] == expected_requests
    first_bad, second_bad, gave_up = WARNINGS[role]
    assert warnings == {"first-parses": [], "retry-parses": first_bad,
                        "both-fail": first_bad + second_bad + gave_up}[case]
    assert value == (FALLBACK if case == "both-fail" else PARSED)[role]
