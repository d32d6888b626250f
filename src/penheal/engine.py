"""The iterative pentest loop.

One iteration: the planner picks a task, the instructor attaches knowledge
excerpts, the executor emits commands, a backend runs them, the summarizer
condenses the output, the extractor checks for newly exploited weaknesses,
and the planner updates the plan. Whenever an iteration produces at least
one new finding, a counterfactual re-planning prompt pushes the planner
toward unexplored attack paths, and the engine mechanically verifies that
no task covering an already-found weakness stays to-do.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Protocol, Union

from .gateway import AgentRole, Gateway
from .knowledge import KnowledgeBase, build_instructor_prompt
from .model import (
    AttackPlan,
    RunConfig,
    TaskNode,
    TaskStatus,
    Vulnerability,
    clip_summary,
    dedupe_findings,
)
from .prompts import ask, format_finding_lines, render_prompt

OUTPUT_CAP = 64 * 1024
SUMMARY_CAP = 1200
TRUNCATION_MARKER = "...[truncated]"
NO_OUTPUT_TEXT = "(no output)"
PARSE_FAILURE_TEXT = "planner-parse-failure"
TIMEOUT_STATUS = "timeout"


class EngineError(Exception):
    pass


class BackendUnreachableError(EngineError):
    """The command backend is gone; the loop aborts with partial history."""

    def __init__(self, message: str, history: Optional["PentestHistory"] = None):
        super().__init__(message)
        self.history = history


class PlanExhaustedError(EngineError):
    """No to-do task remains: a termination condition, not a failure."""


class CommandChannel(Enum):
    SHELL = "shell"
    MSFCONSOLE = "msfconsole"


class _CommandFields(NamedTuple):
    raw: str
    channel: CommandChannel = CommandChannel.SHELL
    timeout_seconds: int = 120


class Command(_CommandFields):
    """One command for a backend; its text must not be blank."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.raw.strip():
            raise ValueError("command must be non-empty")
        return self


class ExecutionRecord(NamedTuple):
    command: Command
    raw_output: str
    summary: str
    exit_status: Union[int, str]

    def to_dict(self) -> dict:
        return {
            "command": self.command.raw,
            "channel": self.command.channel.value,
            "raw_output": self.raw_output,
            "summary": self.summary,
            "exit_status": self.exit_status,
        }


class PentestHistory:
    """What the loop has executed and found so far; both lists only grow."""

    def __init__(self) -> None:
        self.records: list[ExecutionRecord] = []
        self.findings_so_far: list[Vulnerability] = []


class IterationLog(NamedTuple):
    iteration: int
    task_id: str
    new_finding_keys: tuple[str, ...]
    counterfactual_issued: bool
    command_count: int
    plan_changed: bool


class PentestResult(NamedTuple):
    history: PentestHistory
    plan: AttackPlan
    findings: list[Vulnerability]
    iterations: list[IterationLog]
    termination_reason: str
    warnings: list[str]


class ExecutorBackend(Protocol):
    def run(self, command: Command) -> tuple[str, Union[int, str]]: ...


# ---------------------------------------------------------------------------
# Plan text rendering and parsing
# ---------------------------------------------------------------------------

_PLAN_LINE = re.compile(
    r"^\s*(\d+(?:\.\d+)*)\.?\s+(\S.*?)\s*"
    r"\[(to-do|to do|todo|completed|done|failed)\]"
    r"\s*(?:-\s*result:\s*(.*?))?\s*$",
    re.IGNORECASE,
)

_STATUS_WORDS = {
    "to-do": TaskStatus.TODO,
    "to do": TaskStatus.TODO,
    "todo": TaskStatus.TODO,
    "completed": TaskStatus.COMPLETED,
    "done": TaskStatus.COMPLETED,
    "failed": TaskStatus.FAILED,
}


class ParsedPlanLine(NamedTuple):
    id: str
    description: str
    status: TaskStatus
    result: Optional[str]


def render_plan(plan: AttackPlan) -> str:
    """Render a plan as the one-task-per-line format the planner reads and writes."""
    lines = []

    def emit(node: TaskNode, depth: int) -> None:
        line = f"{'  ' * depth}{node.id} {node.description} [{node.status.value}]"
        if node.result_summary is not None:
            line += f" - result: {node.result_summary}"
        lines.append(line)
        for child in node.children:
            emit(child, depth + 1)

    for root in plan.roots:
        emit(root, 0)
    return "\n".join(lines)


def parse_plan_text(text: str) -> list[ParsedPlanLine]:
    """Extract plan lines from planner output; non-matching lines are ignored."""
    parsed = []
    for line in text.splitlines():
        match = _PLAN_LINE.match(line)
        if not match:
            continue
        task_id, description, status_word, result = match.groups()
        parsed.append(
            ParsedPlanLine(
                id=task_id,
                description=description.strip(),
                status=_STATUS_WORDS[status_word.lower()],
                result=result.strip() if result else None,
            )
        )
    return parsed


def build_plan(lines: list[ParsedPlanLine]) -> tuple[AttackPlan, list[str]]:
    """Construct a fresh plan from parsed lines, dropping orphans."""
    return _assemble({}, [], lines)


def merge_revision(plan: AttackPlan, lines: list[ParsedPlanLine]) -> tuple[AttackPlan, list[str]]:
    """Fold a planner revision into an existing plan.

    Existing tasks only ever move to-do -> completed/failed; attempts to
    revert are ignored. Tasks missing from the revision are kept, new tasks
    are attached under their parent, orphans are dropped with a warning.
    """
    seed: dict[str, dict] = {}
    root_ids: list[str] = []

    def visit(node: TaskNode) -> None:
        seed[node.id] = {
            "description": node.description,
            "status": node.status,
            "result": node.result_summary,
            "children": [c.id for c in node.children],
        }
        for child in node.children:
            visit(child)

    for root in plan.roots:
        visit(root)
        root_ids.append(root.id)
    return _assemble(seed, root_ids, lines)


def _assemble(
    seed: dict[str, dict], root_ids: list[str], lines: list[ParsedPlanLine]
) -> tuple[AttackPlan, list[str]]:
    nodes = seed
    roots = list(root_ids)
    warnings: list[str] = []

    pending = list(lines)
    for _ in range(2):  # second pass catches children listed before their parent
        deferred = []
        for line in pending:
            if line.id in nodes:
                entry = nodes[line.id]
                if entry["status"] is TaskStatus.TODO:
                    entry["status"] = line.status
                elif line.status is TaskStatus.TODO:
                    warnings.append(f"{line.id}: ignored attempt to revert to to-do")
                elif line.status is not entry["status"]:
                    warnings.append(f"{line.id}: ignored status change after completion")
                entry["description"] = line.description
                if line.result:
                    entry["result"] = clip_summary(line.result)
                continue
            parent_id = line.id.rsplit(".", 1)[0] if "." in line.id else None
            if parent_id is not None and parent_id not in nodes:
                deferred.append(line)
                continue
            nodes[line.id] = {
                "description": line.description,
                "status": line.status,
                "result": clip_summary(line.result) if line.result else None,
                "children": [],
            }
            if parent_id is None:
                roots.append(line.id)
            else:
                nodes[parent_id]["children"].append(line.id)
        pending = deferred
        if not pending:
            break
    for line in pending:
        warnings.append(f"dropped orphan task {line.id} (no parent in plan)")

    for task_id, entry in nodes.items():
        if entry["status"] is not TaskStatus.TODO and not entry["result"]:
            entry["result"] = "(no result provided)"
        if entry["status"] is TaskStatus.TODO:
            entry["result"] = None

    def freeze(task_id: str) -> TaskNode:
        entry = nodes[task_id]
        return TaskNode(
            id=task_id,
            description=entry["description"],
            status=entry["status"],
            result_summary=entry["result"],
            children=tuple(freeze(c) for c in entry["children"]),
        )

    return AttackPlan(roots=tuple(freeze(r) for r in roots)), warnings


def mark_task(
    plan: AttackPlan, task_id: str, status: TaskStatus, result: str
) -> AttackPlan:
    """Mechanically set one task's status and result (to-do tasks only)."""
    node = plan.find(task_id)
    if node is None:
        raise EngineError(f"no task {task_id} in plan")
    if node.status is not TaskStatus.TODO:
        return plan
    return plan.with_node(node._replace(status=status, result_summary=clip_summary(result)))


# ---------------------------------------------------------------------------
# Command parsing and execution
# ---------------------------------------------------------------------------

_MSF_PREFIX = re.compile(r"^\s*msfconsole\s*:\s*", re.IGNORECASE)


def parse_commands(llm_output: str) -> tuple[list[Command], list[str]]:
    """Extract every $-delimited command, in order.

    A body starting with "msfconsole:" becomes a console-channel command
    with the prefix stripped. Unpaired delimiters and empty bodies are
    reported as warnings, never raised.
    """
    commands: list[Command] = []
    warnings: list[str] = []
    pieces = llm_output.split("$")
    # pieces at odd indices sit between delimiter pairs
    for idx in range(1, len(pieces), 2):
        if idx + 1 >= len(pieces):
            fragment = pieces[idx].strip()
            if fragment:
                warnings.append(f"unpaired $ delimiter near: {fragment[:60]!r}")
            break
        body = pieces[idx].strip()
        if not body:
            warnings.append("empty command between $ delimiters")
            continue
        match = _MSF_PREFIX.match(body)
        if match:
            remainder = body[match.end():].strip()
            if not remainder:
                warnings.append("empty msfconsole command")
                continue
            commands.append(Command(raw=remainder, channel=CommandChannel.MSFCONSOLE))
        else:
            commands.append(Command(raw=body, channel=CommandChannel.SHELL))
    return commands, warnings


def execute(command: Command, backend: ExecutorBackend) -> tuple[str, Union[int, str]]:
    """Run one command on the backend; output is capped at 64 KiB."""
    try:
        output, status = backend.run(command)
    except BackendUnreachableError:
        raise
    except Exception as exc:  # spawn failures become records, the loop continues
        return f"execution error: {exc}", -1
    if len(output) > OUTPUT_CAP:
        output = output[: OUTPUT_CAP - len(TRUNCATION_MARKER)] + TRUNCATION_MARKER
    return output, status


def summarize(command_text: str, raw_output: str, gateway: Gateway) -> str:
    """Light-tier condensation of one command's output, hard-capped at 1200 chars."""
    if not raw_output.strip():
        return NO_OUTPUT_TEXT
    variables = {"command": command_text, "output": raw_output}
    reply = ask(gateway, AgentRole.SUMMARIZER,
                render_prompt(AgentRole.SUMMARIZER, variables, "condense"))
    if len(reply) > SUMMARY_CAP:
        reply = reply[: SUMMARY_CAP - len(TRUNCATION_MARKER)] + TRUNCATION_MARKER
    return reply


# ---------------------------------------------------------------------------
# Planner interactions
# ---------------------------------------------------------------------------


def initial_plan(config: RunConfig, gateway: Gateway) -> tuple[AttackPlan, list[str]]:
    response = ask(gateway, AgentRole.PLANNER,
                   render_prompt(AgentRole.PLANNER, {"target": config.target_address}, "init"))
    lines = parse_plan_text(response)
    if not lines:
        raise EngineError("planner produced no parseable initial plan")
    return build_plan(lines)


def select_next_task(plan: AttackPlan, gateway: Gateway) -> str:
    """Ask the planner for the next task id; fall back to depth-first first to-do."""
    todo = plan.todo_ids()
    if not todo:
        raise PlanExhaustedError("no to-do tasks remain")
    response = ask(gateway, AgentRole.PLANNER,
                   render_prompt(AgentRole.PLANNER, {"plan": render_plan(plan)}, "select"))
    for token in re.findall(r"\d+(?:\.\d+)*", response):
        if token in todo:
            return token
    return todo[0]


def update_plan(
    plan: AttackPlan, task_id: str, summary: str, gateway: Gateway
) -> tuple[AttackPlan, list[str]]:
    """Let the planner mark the executed task and extend the plan."""
    node = plan.find(task_id)
    if node is None or node.status is not TaskStatus.TODO:
        raise EngineError(f"task {task_id} does not exist or is not to-do")
    variables = {"plan": render_plan(plan), "task_id": task_id, "summary": summary}
    response = ask(gateway, AgentRole.PLANNER,
                   render_prompt(AgentRole.PLANNER, variables, "update"))
    lines = parse_plan_text(response)
    if not lines:
        return (
            mark_task(plan, task_id, TaskStatus.FAILED, PARSE_FAILURE_TEXT),
            [f"{task_id}: {PARSE_FAILURE_TEXT}"],
        )
    merged, warnings = merge_revision(plan, lines)
    target = merged.find(task_id)
    if target is None or target.status is TaskStatus.TODO:
        merged = mark_task(merged, task_id, TaskStatus.FAILED, summary or PARSE_FAILURE_TEXT)
        warnings.append(f"{task_id}: planner did not settle the task; marked failed")
    elif not target.result_summary or target.result_summary == "(no result provided)":
        merged = merged.with_node(target._replace(
            result_summary=clip_summary(summary) if summary else "(no result provided)"
        ))
    return merged, warnings


def _references_finding(description: str, finding: Vulnerability) -> bool:
    text = description.lower()
    if finding.id != "CVE-NA" and finding.id.lower() in text:
        return True
    service = finding.service.strip().lower()
    if service and re.search(rf"\b{re.escape(service)}\b", text):
        return True
    if finding.port is not None and re.search(rf"\bport\s+{finding.port}\b", text):
        return True
    return False


def counterfactual_update(
    plan: AttackPlan, findings: list[Vulnerability], gateway: Gateway
) -> tuple[AttackPlan, list[str]]:
    """Issue the as-if-they-did-not-exist re-planning prompt and verify the result.

    After applying the planner's revision, any to-do task that still covers
    an already-found weakness is force-marked completed: the guarantee is
    mechanical, not left to the model.
    """
    if not findings:
        raise EngineError("counterfactual update requires at least one finding")
    variables = {"findings": format_finding_lines(findings), "plan": render_plan(plan)}
    response = ask(gateway, AgentRole.PLANNER,
                   render_prompt(AgentRole.PLANNER, variables, "counterfactual"))
    lines = parse_plan_text(response)
    warnings: list[str] = []
    if lines:
        merged, warnings = merge_revision(plan, lines)
    else:
        merged = plan
        warnings.append("counterfactual revision unparseable; kept previous plan")

    for node in list(merged.walk()):
        if node.status is not TaskStatus.TODO:
            continue
        for finding in findings:
            if _references_finding(node.description, finding):
                merged = mark_task(
                    merged,
                    node.id,
                    TaskStatus.COMPLETED,
                    f"already exploited: {finding.id} on {finding.service} (verified)",
                )
                break
    return merged, warnings


# ---------------------------------------------------------------------------
# Finding extraction
# ---------------------------------------------------------------------------

_EXPLOITED_LINE = re.compile(r"^\s*exploited\s*:\s*(.+?)\s*$", re.IGNORECASE)
_ATTR_LINE = re.compile(r"^\s*([A-Za-z_ ]+?)\s*:\s*(.*?)\s*$")
_CVE_TOKEN = re.compile(r"CVE-\d{4}-\d{4,}|CVE-NA", re.IGNORECASE)


def parse_extractor_blocks(text: str) -> tuple[list[Vulnerability], list[str]]:
    """Parse "Exploited:" blocks into findings; bad blocks are skipped with warnings."""
    stripped = text.strip()
    if not stripped or stripped.upper() == "NONE":
        return [], []

    blocks: list[list[str]] = []
    current: Optional[list[str]] = None
    for line in stripped.splitlines():
        if _EXPLOITED_LINE.match(line):
            current = [line]
            blocks.append(current)
        elif current is not None:
            current.append(line)

    findings: list[Vulnerability] = []
    warnings: list[str] = []
    for block in blocks:
        header = _EXPLOITED_LINE.match(block[0]).group(1)
        cve_match = _CVE_TOKEN.search(header)
        if not cve_match:
            warnings.append(f"skipped block with unrecognized id: {header[:60]!r}")
            continue
        vuln_id = cve_match.group(0).upper()
        attrs: dict[str, str] = {}
        for line in block[1:]:
            match = _ATTR_LINE.match(line)
            if match:
                attrs[match.group(1).strip().lower()] = match.group(2)
        port: Optional[int] = None
        port_text = attrs.get("port", "")
        if port_text:
            digits = re.search(r"\d+", port_text)
            number = digits.group(0).lstrip("0") if digits else ""
            if digits and len(number) <= 5 and int(number or 0) <= 65535:  # int() caps digits
                port = int(number or 0)
            else:
                warnings.append(f"unparseable port {port_text[:60]!r} for {vuln_id}")
        findings.append(
            Vulnerability(
                id=vuln_id,
                service=attrs.get("service", "unknown").strip().lower(),
                port=port,
                description=attrs.get("description", ""),
                exploitation_method=attrs.get("method", attrs.get("exploitation_method", "")),
            )
        )
    return dedupe_findings(findings), warnings


def extract_findings(
    records: Iterable[ExecutionRecord], gateway: Gateway
) -> tuple[list[Vulnerability], list[str]]:
    """Run the extractor over executed commands and their summaries."""
    records = list(records)
    if not records:
        return [], []
    history_text = "\n".join(
        f"Command: {r.command.raw}\nSummary: {r.summary}" for r in records
    )
    response = ask(gateway, AgentRole.EXTRACTOR,
                   render_prompt(AgentRole.EXTRACTOR, {"history": history_text}, "extract"))
    return parse_extractor_blocks(response)


# ---------------------------------------------------------------------------
# Termination
# ---------------------------------------------------------------------------


def termination_reason(
    plan: AttackPlan, iterations: list[IterationLog], iteration: int, config: RunConfig
) -> Optional[str]:
    """Why the loop stops after ``iteration`` iterations, or None to run another.

    In order: the iteration budget is spent, no to-do task remains, or the
    last ``no_new_finding_window`` iterations found nothing and left the plan
    unchanged. Stagnation never fires before the first iteration.
    """
    if iteration >= config.max_iterations:
        return "budget-exhausted"
    if plan.first_todo() is None:
        return "plan-exhausted"
    streak = 0
    for log in reversed(iterations):
        if log.new_finding_keys or log.plan_changed:
            break
        streak += 1
    if iterations and streak >= config.no_new_finding_window:
        return "stagnation"
    return None


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def run_pentest(
    config: RunConfig,
    executor_backend: ExecutorBackend,
    gateway: Gateway,
    knowledge_base: Optional[KnowledgeBase] = None,
) -> PentestResult:
    """Run the full pentest loop and return history, final plan and findings."""
    config.validate()
    plan, warnings = initial_plan(config, gateway)
    history = PentestHistory()
    iterations: list[IterationLog] = []
    prev_structure = plan.structure_key()
    iteration = 0

    while (termination := termination_reason(plan, iterations, iteration, config)) is None:
        iteration += 1
        task_id = select_next_task(plan, gateway)
        task = plan.find(task_id)

        excerpts = []
        if knowledge_base is not None and len(knowledge_base):
            excerpts = knowledge_base.retrieve(task.description, config.retrieval_k)

        commands, cmd_warnings = ask(
            gateway, AgentRole.EXECUTOR, build_instructor_prompt(task.description, excerpts),
            system=render_prompt(AgentRole.EXECUTOR, {"task": task.description}, "system"),
            parse=parse_commands)
        warnings.extend(cmd_warnings)

        new_findings: list[Vulnerability] = []
        if not commands:
            plan = mark_task(
                plan, task_id, TaskStatus.FAILED, "no executable command produced"
            )
            warnings.append(f"{task_id}: executor produced no command twice")
        else:
            iteration_records = []
            try:
                for command in commands:
                    output, status = execute(command, executor_backend)
                    summary = summarize(command.raw, output, gateway)
                    record = ExecutionRecord(command, output, summary, status)
                    iteration_records.append(record)
                    history.records.append(record)
            except BackendUnreachableError as exc:
                raise BackendUnreachableError(str(exc), history) from exc

            candidates, extract_warnings = extract_findings(iteration_records, gateway)
            warnings.extend(extract_warnings)
            known = {v.key for v in history.findings_so_far}
            new_findings = [v for v in candidates if v.key not in known]
            history.findings_so_far.extend(new_findings)

            combined = clip_summary(
                " / ".join(r.summary for r in iteration_records), SUMMARY_CAP
            )
            plan, update_warnings = update_plan(plan, task_id, combined, gateway)
            warnings.extend(update_warnings)

        if new_findings:
            plan, cf_warnings = counterfactual_update(
                plan, list(history.findings_so_far), gateway
            )
            warnings.extend(cf_warnings)

        structure = plan.structure_key()
        iterations.append(
            IterationLog(
                iteration=iteration,
                task_id=task_id,
                new_finding_keys=tuple(v.key_str for v in new_findings),
                counterfactual_issued=bool(new_findings),
                command_count=len(commands),
                plan_changed=structure != prev_structure,
            )
        )
        prev_structure = structure

    final_findings, final_warnings = extract_findings(history.records, gateway)
    warnings.extend(final_warnings)
    findings = dedupe_findings(list(history.findings_so_far) + final_findings)

    return PentestResult(
        history=history,
        plan=plan,
        findings=findings,
        iterations=iterations,
        termination_reason=termination,
        warnings=warnings,
    )
