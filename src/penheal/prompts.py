"""Prompt catalog for every agent role, and the one way an agent is asked.

Every agent exchange goes through :func:`ask`. Templates use ``{name}``
placeholders filled by :func:`render_prompt` under ``str.format`` rules, so a
literal brace in a template is written ``{{`` or ``}}``, and braces inside
substituted values are left alone. A source test checks that every request
passes each placeholder its template names. Every correction prompt of the
re-ask rule is the role's ``retry`` template.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Callable, Optional

from .gateway import AgentRole, ChatTurn, Gateway, RoleTag
from .model import CVE_NA, Vulnerability

if TYPE_CHECKING:
    from .knowledge import Excerpt


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
    (AgentRole.PLANNER, "system"): """\
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
Exploitation.""",
    (AgentRole.PLANNER, "init"): """\
The target system's IP address is {target}. Create the initial attack plan \
covering the standard phases. Output only the plan.""",
    (AgentRole.PLANNER, "select"): """\
Here is the current attack plan:
{plan}
Choose the next task based on the latest outcomes and the current attack \
plan. Reply with the task id only.""",
    (AgentRole.PLANNER, "update"): """\
Here is the current attack plan:
{plan}
Task {task_id} was executed. Summarized outcome:
{summary}
Update the attack plan: mark task {task_id} as completed or failed with a \
succinct result, and add subtasks if more information is required. Output \
only the full updated plan.""",
    (AgentRole.PLANNER, "counterfactual"): """\
Here is the list of vulnerabilities already identified, please mark them as \
completed on the attack list. Now exploit the system as if they do not exist:
{findings}
Here is the current attack plan:
{plan}
Output only the full updated plan.""",
    (AgentRole.EXECUTOR, "system"): """\
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
Your assigned task: {task}""",
    (AgentRole.EXECUTOR, "instructor"): """\
Here is a brief introduction to the task: {task}. Here is some info from the \
knowledge base for your reference:
{excerpts}""",
    (AgentRole.EXECUTOR, "retry"): """\
No command could be parsed from your reply. Remember guideline (1): commands \
must start and end with "$". Give the command(s) for the task again.""",
    (AgentRole.SUMMARIZER, "system"): """\
You summarize the outputs of commands executed during a penetration test. \
Condense the verbose output into a concise and informative summary, keeping \
key facts: open ports, service names and versions, vulnerability \
identifiers, credentials, sessions or access gained, and errors. Stay under \
1200 characters. Output only the summary.""",
    (AgentRole.SUMMARIZER, "condense"): """\
Command: {command}
Output:
{output}""",
    (AgentRole.EXTRACTOR, "system"): """\
You extract the vulnerabilities and their characteristics from the recorded \
attack history. For every vulnerability that was successfully exploited, \
output one block in exactly this format:
Exploited: [backdoor/CVE ID]
service: <service name>
port: <port number>
description: <one line>
method: <how it was exploited>
For vulnerabilities that are not disclosed, fill in "CVE-NA" as the ID. \
If no vulnerability was exploited, output NONE.""",
    (AgentRole.EXTRACTOR, "extract"): """\
Recorded attack history:
{history}""",
    (AgentRole.ESTIMATOR, "system"): """\
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
Output only the vector string.""",
    (AgentRole.ESTIMATOR, "estimate"): """\
Vulnerability: {finding}
Recorded context:
{context}""",
    (AgentRole.ESTIMATOR, "retry"): """\
That vector string could not be parsed: {error}
Output only a corrected vector string.""",
    (AgentRole.ADVISOR, "system"): """\
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
starting with "<number>. ".""",
    (AgentRole.ADVISOR, "advise"): """\
Vulnerability: {finding}
Severity: CVSS base score {score} ({vector}).
Description: {description}
Propose the remediation recommendations now.""",
    (AgentRole.ADVISOR, "retry"): """\
Your reply could not be parsed. Output a numbered list, one recommendation \
per item, each starting with "<number>. ".""",
    (AgentRole.EVALUATOR, "system"): """\
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
more line: targets: <comma-separated vulnerability ids>.""",
    (AgentRole.EVALUATOR, "evaluate"): """\
Remediation approach: {recommendation}""",
    (AgentRole.EVALUATOR, "retry"): """\
Your reply could not be parsed. Reply with exactly the lines described:
effect: full | partial <k>% | zero | negative <k>%
cost: low | moderate | high | <number between 0 and 10>""",
}


def render_prompt(role: AgentRole, variables: dict[str, str], kind: str = "system") -> str:
    """Fill the role's ``kind`` template with variables, substituted verbatim; an unknown kind
    or a missing placeholder is a KeyError, which source tests rule out for every request."""
    return TEMPLATES[(role, kind)].format_map(variables)


def ask(gateway: Gateway, role: AgentRole, kind: str, variables: dict[str, str],
        system: Optional[str] = None,
        parse: Optional[Callable[[str], tuple[Any, list[str]]]] = None) -> Any:
    """Ask ``role`` its ``kind`` template with ``variables``, after its catalog system turn
    (or ``system``).

    Without ``parse`` the reply is returned as it is. With it, returns
    ``parse(reply)``: a value, empty or None when the reply is unusable, and
    warnings. An unusable reply is asked about exactly once more, with the
    reply (unless it is empty) and the role's ``retry`` prompt appended
    (``{error}`` is that attempt's warnings); the warnings of both attempts are
    returned in order.
    """
    history = [ChatTurn(RoleTag.SYSTEM, system or _catalog_system(role)),
               ChatTurn(RoleTag.USER, render_prompt(role, variables, kind))]
    reply = gateway.complete(role, history)
    if parse is None:
        return reply
    value, warnings = parse(reply)
    if not value:
        retry = render_prompt(role, {"error": "; ".join(warnings)}, "retry")
        answer = [ChatTurn(RoleTag.ASSISTANT, reply)] if reply else []
        reply = gateway.complete(role, history + answer + [ChatTurn(RoleTag.USER, retry)])
        value, retry_warnings = parse(reply)
        warnings = warnings + retry_warnings
    return value, warnings


@functools.cache
def _catalog_system(role: AgentRole) -> str:
    """The role's catalog system prompt, rendered once per process: the gateway's
    first-turn hash cache then matches this one string object by identity."""
    return render_prompt(role, {}, "system")


def format_excerpts(excerpts: list[Excerpt]) -> str:
    """The Instructor's numbered list of retrieved excerpts, in rank order."""
    return "\n".join(f"{i}. {e.chunk.text}" for i, e in enumerate(excerpts, start=1))


def cost_rules_text(tiers: dict[str, float], user_preference: Optional[str] = None) -> str:
    """The cost-tier definition forwarded to the evaluator, with user preferences."""
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
    if user_preference:
        text += f" User preference: {user_preference}"
    return text


def format_finding_lines(findings: list[Vulnerability]) -> str:
    """Render findings as the port/service + description (CVE) listing."""
    lines = []
    for v in findings:
        port = "?" if v.port is None else str(v.port)
        label = "Unknown CVE" if v.id.upper() == CVE_NA else v.id
        desc = v.description or v.exploitation_method or "weakness identified"
        lines.append(f"Port {port}/{v.service}:\n  {desc} ({label})")
    return "\n".join(lines)


def format_vulns_inline(findings: list[Vulnerability]) -> str:
    """The evaluator's vulnerability slot: each finding's key (id, service, port) and score."""
    return "; ".join(f"{v.key_str} (CVSS {v.cvss.base_score})" if v.cvss else v.key_str
                     for v in findings)
