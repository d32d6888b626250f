"""Prompt catalog for every agent role, and the one way an agent is asked.

Every agent exchange goes through :func:`ask`. Templates use ``{name}``
placeholders filled by :func:`render_prompt`. Substitution is a single pass,
so braces inside substituted values are left alone. A missing placeholder
raises an error naming it. Every correction prompt of the re-ask rule is the
role's ``retry`` template.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional

from .gateway import AgentRole, Gateway, assistant_turn, system_turn, user_turn
from .model import CVE_NA, CostPolicy, Vulnerability

_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


class PromptError(KeyError):
    """A required template placeholder was not supplied."""


PLANNER_SYSTEM = """\
As the chief director of penetration testing, you are responsible for \
high-level planning. Please follow these guidelines:
(1) Task Structure: Organize tasks in a layered sequence (e.g., 1, 1.1, 1.1.1).
(2) Assign a status to each task: to-do, completed, or failed. Update this \
status and include succinct results based on the latest outcomes.
(3) If uncertain about a task or the previous outcomes indicate that more \
info is required, you are encouraged to add subtasks to acquire more \
information (e.g., search in Metasploit).
(4) Choose the next task based on the latest outcomes and the current attack \
plan. You can either start a new task (marked as to-do) or continue with the \
current one.
(5) Write the attack plan one task per line in exactly this form:
<id> <description> [<status>] - result: <one line>
where <status> is to-do, completed, or failed; the "- result:" part appears \
only for completed or failed tasks. A subtask id extends its parent id by \
one dotted segment.
(6) Never change a task that is already completed or failed back to to-do.
The phases are Reconnaissance, Scanning, Vulnerability Assessment, and \
Exploitation."""

PLANNER_INIT = """\
The target system's IP address is {target}. Create the initial attack plan \
covering the standard phases. Output only the plan."""

PLANNER_SELECT = """\
Here is the current attack plan:
{plan}
Choose the next task based on the latest outcomes and the current attack \
plan. Reply with the task id only."""

PLANNER_UPDATE = """\
Here is the current attack plan:
{plan}
Task {task_id} was executed. Summarized outcome:
{summary}
Update the attack plan: mark task {task_id} as completed or failed with a \
succinct result, and add subtasks if more information is required. Output \
only the full updated plan."""

PLANNER_COUNTERFACTUAL = """\
Here is the list of vulnerabilities already identified, please mark them as \
completed on the attack list. Now exploit the system as if they do not exist:
{findings}
Here is the current attack plan:
{plan}
Output only the full updated plan."""

EXECUTOR_SYSTEM = """\
As the penetration tester, you are responsible for generating commands given \
the task assigned by your boss. Please follow these guidelines:
(1) Give your command(s) in a format starting and ending with "$" for easy \
parsing.
(2) If the command is too long or complex, break it down into multiple \
commands.
(3) Only give a sequence of commands if they are logically connected and \
follow a sequence that makes sense.
(4) If you want to use Metasploit, please write in this format: \
"msfconsole: [command]".
(5) Assume that you are operating on a Kali Linux machine. All tools are \
pre-installed. You are given the permission to use all of them.
(6) Avoid overly lengthy or complicated commands; the insights from previous \
commands often inform the choice of subsequent commands.
Your assigned task: {task}"""

EXECUTOR_INSTRUCTOR = """\
Here is a brief introduction to the task: {task}. Here is some info from the \
knowledge base for your reference:
{excerpts}"""

EXECUTOR_RETRY = """\
No command could be parsed from your reply. Remember guideline (1): commands \
must start and end with "$". Give the command(s) for the task again."""

SUMMARIZER_SYSTEM = """\
You summarize the outputs of commands executed during a penetration test. \
Condense the verbose output into a concise and informative summary, keeping \
key facts: open ports, service names and versions, vulnerability \
identifiers, credentials, sessions or access gained, and errors. Stay under \
1200 characters. Output only the summary."""

SUMMARIZER_CONDENSE = """\
Command: {command}
Output:
{output}"""

EXTRACTOR_SYSTEM = """\
You extract the vulnerabilities and their characteristics from the recorded \
attack history. For every vulnerability that was successfully exploited, \
output one block in exactly this format:
Exploited: [backdoor/CVE ID]
service: <service name>
port: <port number>
description: <one line>
method: <how it was exploited>
For vulnerabilities that are not disclosed, fill in "CVE-NA" as the ID. \
If no vulnerability was exploited, output NONE."""

EXTRACTOR_EXTRACT = """\
Recorded attack history:
{history}"""

ESTIMATOR_SYSTEM = """\
As the severity estimator, you are responsible for producing a vector string \
for the CVSS calculator. Please follow these guidelines:
(1) A vector string is of the form 'CVSS:3.0/AV:[value]/AC:[value]/PR:[value]\
/UI:[value]/S:[value]/C:[value]/I:[value]/A:[value]'.
(2) Attack Vector (AV): The way the vulnerability is exploited. Choose from: \
Network (N), Adjacent (A), Local (L), Physical (P).
(3) Attack Complexity (AC): The conditions beyond the attacker's control \
that must exist to exploit the vulnerability. Choose from: Low (L), High (H).
(4) Privileges Required (PR): The level of privileges the attacker must \
possess before exploiting. Choose from: None (N), Low (L), High (H).
(5) User Interaction (UI): Whether another user must participate. Choose \
from: None (N), Required (R).
(6) Scope (S): Whether the exploit impacts resources beyond its security \
scope. Choose from: Unchanged (U), Changed (C).
(7) Confidentiality (C), Integrity (I), Availability (A): The impact on each \
property. Choose from: High (H), Low (L), None (N).
Output only the vector string."""

ESTIMATOR_ESTIMATE = """\
Vulnerability: {finding}
Recorded context:
{context}"""

ESTIMATOR_RETRY = """\
That vector string could not be parsed: {error}
Output only a corrected vector string."""

ADVISOR_SYSTEM = """\
As the remediation advisor, you are responsible for generating remediation \
strategies for the vulnerabilities identified. Please follow these \
guidelines:
(1) Ensure that the remediation recommendations are actionable and effective \
in mitigating the identified risks.
(2) Specific commands are preferred over general recommendations. For \
example, "sudo apt update" is better than "Update the system".
(3) Adding protection is preferred over shutting down services. For example, \
suggesting enabling firewall and giving commands is better than "Shut down \
the service".
(4) Output a numbered list with one recommendation per item, each item \
starting with "<number>. "."""

ADVISOR_ADVISE = """\
Vulnerability: {finding}
Severity: CVSS base score {score} ({vector}).
Description: {description}
Propose the remediation recommendations now."""

ADVISOR_RETRY = """\
Your reply could not be parsed. Output a numbered list, one recommendation \
per item, each starting with "<number>. "."""

EVALUATOR_SYSTEM = """\
You have already discovered these vulnerabilities: {vulns}. If the following \
remediation approach is adopted, to what extent can it mitigate the risks? \
Give the score based on the rule: {value_def}. Give the score based on their \
cost: {cost_def}.
Imagine as if the recommendation is implemented, how effective it could be, \
and to what degree it could make the system less vulnerable. Reply with \
exactly these lines:
effect: full | partial <k>% | zero | negative <k>%
cost: low | moderate | high | <number between 0 and 10>
If the approach also addresses other vulnerabilities from the list, add one \
more line: targets: <comma-separated vulnerability ids>."""

EVALUATOR_EVALUATE = """\
Remediation approach: {recommendation}"""

EVALUATOR_RETRY = """\
Your reply could not be parsed. Reply with exactly the lines described:
effect: full | partial <k>% | zero | negative <k>%
cost: low | moderate | high | <number between 0 and 10>"""


VALUE_RULES_TEXT = """\
Full CVSS Score: the full numerical value of the CVSS score is assigned to \
recommendations that directly and completely address a vulnerability. \
Partial CVSS Score (k%): a fraction k% of the CVSS score, with k between 0 \
and 100, is assigned to recommendations that only partially address the \
vulnerability. Zero Score: a score of 0 is assigned to recommendations that \
cannot address the vulnerability or are irrelevant. Sum of Scores for \
Multiple Vulnerabilities: if a recommendation addresses multiple \
vulnerabilities, the value is the sum of the CVSS scores of all addressed \
vulnerabilities. Negative Impact (negative k%): negative k% of the CVSS \
score is assigned to recommendations that exacerbate the vulnerability."""


TEMPLATES: dict[tuple[AgentRole, str], str] = {
    (AgentRole.PLANNER, "system"): PLANNER_SYSTEM,
    (AgentRole.PLANNER, "init"): PLANNER_INIT,
    (AgentRole.PLANNER, "select"): PLANNER_SELECT,
    (AgentRole.PLANNER, "update"): PLANNER_UPDATE,
    (AgentRole.PLANNER, "counterfactual"): PLANNER_COUNTERFACTUAL,
    (AgentRole.EXECUTOR, "system"): EXECUTOR_SYSTEM,
    (AgentRole.EXECUTOR, "instructor"): EXECUTOR_INSTRUCTOR,
    (AgentRole.EXECUTOR, "retry"): EXECUTOR_RETRY,
    (AgentRole.SUMMARIZER, "system"): SUMMARIZER_SYSTEM,
    (AgentRole.SUMMARIZER, "condense"): SUMMARIZER_CONDENSE,
    (AgentRole.EXTRACTOR, "system"): EXTRACTOR_SYSTEM,
    (AgentRole.EXTRACTOR, "extract"): EXTRACTOR_EXTRACT,
    (AgentRole.ESTIMATOR, "system"): ESTIMATOR_SYSTEM,
    (AgentRole.ESTIMATOR, "estimate"): ESTIMATOR_ESTIMATE,
    (AgentRole.ESTIMATOR, "retry"): ESTIMATOR_RETRY,
    (AgentRole.ADVISOR, "system"): ADVISOR_SYSTEM,
    (AgentRole.ADVISOR, "advise"): ADVISOR_ADVISE,
    (AgentRole.ADVISOR, "retry"): ADVISOR_RETRY,
    (AgentRole.EVALUATOR, "system"): EVALUATOR_SYSTEM,
    (AgentRole.EVALUATOR, "evaluate"): EVALUATOR_EVALUATE,
    (AgentRole.EVALUATOR, "retry"): EVALUATOR_RETRY,
}


def render_prompt(role: AgentRole, variables: dict[str, str], kind: str = "system") -> str:
    """Fill the role's template with variables, substituted verbatim."""
    try:
        template = TEMPLATES[(role, kind)]
    except KeyError:
        raise PromptError(f"no template for role {role.value!r}, kind {kind!r}") from None

    def substitute(match: re.Match) -> str:
        name = match.group(1)
        if name not in variables:
            raise PromptError(
                f"missing placeholder {name!r} for {role.value}/{kind} template"
            )
        return str(variables[name])

    return _PLACEHOLDER.sub(substitute, template)


def ask(gateway: Gateway, role: AgentRole, user: str, system: Optional[str] = None,
        parse: Optional[Callable[[str], tuple[Any, list[str]]]] = None) -> Any:
    """Ask ``role`` with its catalog system prompt (or ``system``), then ``user``.

    Without ``parse`` the reply is returned as it is. With it, returns
    ``parse(reply)``: a value, empty or None when the reply is unusable, and
    warnings. An unusable reply is asked about exactly once more, with the
    reply and the role's ``retry`` prompt appended (``{error}`` is that
    attempt's warnings); the warnings of both attempts are returned in order.
    """
    history = [system_turn(system or render_prompt(role, {}, "system")), user_turn(user)]
    reply = gateway.complete(role, history)
    if parse is None:
        return reply
    value, warnings = parse(reply)
    if not value:
        retry = render_prompt(role, {"error": "; ".join(warnings)}, "retry")
        reply = gateway.complete(role, history + [assistant_turn(reply), user_turn(retry)])
        value, retry_warnings = parse(reply)
        warnings = warnings + retry_warnings
    return value, warnings


def cost_rules_text(policy: CostPolicy) -> str:
    """The cost-tier definition forwarded to the evaluator, with user preferences."""
    tiers = policy.tiers()
    text = (
        "Low-Cost recommendations include applying free patches, making "
        "configuration changes, or executing simple commands; they are "
        f"assigned a cost score of {tiers['low']:g}. Moderate-Cost "
        "recommendations require manually writing scripts or programs, "
        "purchasing software or hardware, or involve some risk; they are "
        f"assigned a moderate cost score of {tiers['moderate']:g}. High-Cost "
        "recommendations necessitate stopping a service, shutting down a "
        "system, or carry a high risk of causing system disruptions; they "
        f"are assigned the highest cost score of {tiers['high']:g}."
    )
    if policy.user_preference_text:
        text += f" User preference: {policy.user_preference_text}"
    return text


def format_finding_lines(findings: list[Vulnerability]) -> str:
    """Render findings as the port/service + description (CVE) listing."""
    lines = []
    for v in findings:
        port = "?" if v.port is None else str(v.port)
        label = "Unknown CVE" if v.id == CVE_NA else v.id
        desc = v.description or v.exploitation_method or "weakness identified"
        lines.append(f"Port {port}/{v.service}:\n  {desc} ({label})")
    return "\n".join(lines)


def format_vulns_inline(findings: list[Vulnerability]) -> str:
    """One-line-per-finding rendering for the evaluator's vulnerability slot."""
    parts = []
    for v in findings:
        score: Optional[float] = v.cvss.base_score if v.cvss else None
        score_text = f", CVSS {score}" if score is not None else ""
        port = "?" if v.port is None else str(v.port)
        parts.append(f"{v.key_str} ({v.service} on port {port}{score_text})")
    return "; ".join(parts)
