"""The iterative pentest loop.

One iteration: the planner picks a task, the instructor attaches knowledge
excerpts, the executor emits commands, a backend runs them, the summarizer
condenses the output, the extractor checks for newly exploited weaknesses,
and the planner updates the plan. Whenever an iteration produces at least
one new finding, a counterfactual re-planning prompt pushes the planner
toward unexplored attack paths, and the engine mechanically verifies that
no task covering an already-found weakness stays to-do.

While the loop runs, the plan is one mutable ``PlanTable``, frozen into an
``AttackPlan`` once, for the result. Every plan change is a merge: the first
plan, each planner revision, each mechanical mark and the counterfactual pass
all fold parsed task lines into the table through ``merge_revision``, which
holds the one set of edit rules.
"""

from __future__ import annotations

import functools
import re
from typing import TYPE_CHECKING, Callable, Optional, Protocol, Union

from .gateway import AgentRole, Gateway
from .model import (
    CVE_ID,
    CVE_NA,
    OUTPUT_CAP,
    AttackPlan,
    Command,
    CommandChannel,
    Record,
    RunConfig,
    TaskNode,
    TaskStatus,
    Vulnerability,
    clip_summary,
    dedupe_findings,
    keep_first,
)
from .prompts import ask, format_excerpts, format_finding_lines, render_prompt

if TYPE_CHECKING:
    from .knowledge import KnowledgeBase

SUMMARY_CAP = 1200
NO_OUTPUT_TEXT = "(no output)"
NO_RESULT_TEXT = "(no result provided)"
PARSE_FAILURE_TEXT = "planner-parse-failure"
COVERAGE_MEMO = 4096  # coverage checks (and matchers) kept; a deep run makes ~530, 164 distinct


class EngineError(Exception):
    pass


class ExecutionRecord(Record):  # one executed command: a history.jsonl row, in field order
    command: str
    channel: CommandChannel
    raw_output: str
    summary: str
    exit_status: Union[int, str]


class IterationLog(Record):
    iteration: int
    task_id: str
    new_finding_keys: tuple[str, ...]  # a counterfactual re-plan followed when non-empty
    command_count: int
    plan_changed: bool


class PentestResult(Record):
    history: list[ExecutionRecord]  # every executed command, in order
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

_STATUS_WORDS = {
    "to-do": TaskStatus.TODO,
    "to do": TaskStatus.TODO,
    "todo": TaskStatus.TODO,
    "completed": TaskStatus.COMPLETED,
    "done": TaskStatus.COMPLETED,
    "failed": TaskStatus.FAILED,
}
# Keywords and task ids are ASCII ((?a:...)): "faıled" names no status, "١.٢" is no id.
_PLAN_LINE = re.compile(
    r"^\s*((?a:\d+(?:\.\d+)*))\.?\s+(\S.*?)\s*"
    rf"\[((?a:{'|'.join(_STATUS_WORDS)}))\]"
    r"\s*(?:-\s*(?a:result):\s*(.*?))?\s*$",
    re.IGNORECASE,
)
_STATUS_TEXT = {status: status.value for status in TaskStatus}  # read with no enum call
MAX_PLAN_TASKS = 512  # tasks a plan holds; merge_revision adds none past it


class PlanTable:
    """The attack plan while a run edits it, held as one table; ``freeze`` gives the tree.

    ``tasks`` maps an id to ``[description, status, result]``, ``children``
    maps a task id ("" for the roots) to its child ids in plan order, and
    ``lines`` keeps each task's rendered line. ``version`` moves when a task
    is added or changes status, and only then, so ``todo`` is kept per version.
    """

    def __init__(self) -> None:
        self.tasks: dict[str, list] = {}
        self.children: dict[str, list[str]] = {"": []}
        self.lines: dict[str, str] = {}
        self.version = 0
        self._ids: Optional[list[str]] = []  # depth-first order; None after an add
        self._text: Optional[str] = ""  # the last render; None after a line changes
        self._todo: tuple[int, list[str]] = (0, [])  # (version, the to-do ids at it)

    def ids(self) -> list[str]:
        """Every task id, depth-first in plan order."""
        if self._ids is None:
            ids, stack, children = [], self.children[""][::-1], self.children
            while stack:
                task_id = stack.pop()
                ids.append(task_id)
                stack.extend(reversed(children[task_id]))
            self._ids = ids
        return self._ids

    def todo(self) -> list[str]:
        """The to-do task ids, depth-first; callers must not change the list."""
        if self._todo[0] != self.version:
            tasks = self.tasks
            self._todo = self.version, [i for i in self.ids() if tasks[i][1] is TaskStatus.TODO]
        return self._todo[1]

    def freeze(self) -> AttackPlan:
        tasks, children = self.tasks, self.children

        def node(task_id: str) -> TaskNode:
            return TaskNode(task_id, *tasks[task_id], tuple(map(node, children[task_id])))

        return AttackPlan(tuple(map(node, children[""])))


def render_plan(plan: PlanTable) -> str:
    """Render a plan as the one-task-per-line format the planner reads and writes."""
    if plan._text is None:
        lines = plan.lines
        plan._text = "\n".join([lines[i] for i in plan.ids()])
    return plan._text


def parse_plan_text(text: str) -> list[TaskNode]:
    """Extract plan lines as childless tasks; non-matching lines are ignored."""
    return [node for node in map(_parse_plan_line, text.splitlines()) if node is not None]


# Distinct planner lines whose parse is kept; a deep run has a few dozen.
PLAN_LINE_MEMO = 1024


@functools.lru_cache(maxsize=PLAN_LINE_MEMO)
def _parse_plan_line(line: str) -> Optional[TaskNode]:
    match = _PLAN_LINE.match(line)
    status = _STATUS_WORDS.get(match[3].lower()) if match else None
    if status is None:
        return None
    task_id, description, _, result = match.groups()
    return TaskNode(task_id, description.strip(), status, result.strip() if result else None)


def merge_revision(plan: PlanTable, lines: list[TaskNode]) -> list[str]:
    """Fold parsed task lines into the plan in place and return the warnings.

    The one code path that changes a plan. Existing tasks only ever move
    to-do -> completed/failed; attempts to revert are ignored with a warning.
    Tasks missing from the lines are kept. A new task goes under the task whose id is
    its own minus the last segment, after that task's existing children, once that parent
    exists and while the plan holds fewer than ``MAX_PLAN_TASKS``. After the passes, the
    lines whose id the plan lacks get one warning: past the bound if it is full, else orphans.
    Results are clipped, and a settled task without one reads "(no result provided)".
    """
    tasks, children = plan.tasks, plan.children
    warnings: list[str] = []
    touched: dict[str, None] = {}  # ids whose fields changed, in first-change order
    pending, size, waited = lines, -1, False
    while pending and len(tasks) > size:  # a task the last pass added may place a deferred one
        size, deferred = len(tasks), []
        for line in pending:
            task_id = line.id
            task = tasks.get(task_id)
            if task is None:
                parent_id = task_id.rpartition(".")[0]
                if len(tasks) >= MAX_PLAN_TASKS or parent_id and parent_id not in tasks:
                    deferred.append(line)
                    continue
                tasks[task_id] = [line.description, line.status, line.result_summary]
                children[parent_id].append(task_id)
                children[task_id] = []
                plan._ids = None
                plan.version += 1
                touched[task_id] = None
                continue
            status = task[1]
            if status is TaskStatus.TODO:
                if line.status is not status:
                    task[1] = line.status
                    plan.version += 1
                    touched[task_id] = None
            elif line.status is TaskStatus.TODO:
                warnings.append(f"{task_id}: ignored attempt to revert to to-do")
            elif line.status is not status:
                warnings.append(f"{task_id}: ignored status change after completion")
            result = line.result_summary or task[2]
            if line.description != task[0] or result != task[2]:
                task[0], task[2] = line.description, result
                touched[task_id] = None
        # A deferred line whose parent is neither a task nor a deferred line can never attach.
        waiting = {line.id for line in deferred}
        pending = [line for line in deferred
                   if (parent := line.id.rpartition(".")[0]) in tasks or parent in waiting]
        waited = waited or bool(deferred)  # only then can a line go unplaced
    if unplaced := [line.id for line in lines if line.id not in tasks] if waited else None:
        warnings.append(f"{len(unplaced)} new task(s) past the plan's {MAX_PLAN_TASKS} ignored"
                        if len(tasks) >= MAX_PLAN_TASKS else f"dropped {len(unplaced)} orphan "
                        f"task(s), the first {unplaced[0][:60]} (no parent in plan)")

    for task_id in touched:  # settle the results and re-render what changed
        description, status, result = task = tasks[task_id]
        line = f"{'  ' * task_id.count('.')}{task_id} {description} [{_STATUS_TEXT[status]}]"
        if status is TaskStatus.TODO:
            task[2] = None
        else:
            task[2] = result = clip_summary(result) if result else NO_RESULT_TEXT
            line += f" - result: {result}"
        if plan.lines.get(task_id) != line:
            plan.lines[task_id] = line
            plan._text = None
    return warnings


def mark_task(plan: PlanTable, task_id: str, status: TaskStatus, result: str) -> None:
    """Mechanically set one task's status and result (to-do tasks only)."""
    task = plan.tasks.get(task_id)
    if task is None:
        raise EngineError(f"no task {task_id} in plan")
    if task[1] is TaskStatus.TODO:
        merge_revision(plan, [TaskNode(task_id, task[0], status, result)])


# ---------------------------------------------------------------------------
# Command parsing and execution
# ---------------------------------------------------------------------------

_MSF_PREFIX = re.compile(r"^\s*(?a:msfconsole)\s*:\s*", re.IGNORECASE)
MAX_COMMANDS = 8  # commands kept from one executor reply, in reply order


def parse_commands(llm_output: str) -> tuple[list[Command], list[str]]:
    """Extract the first ``MAX_COMMANDS`` $-delimited commands, in order.

    A body starting with "msfconsole:" becomes a console-channel command
    with the prefix stripped. Unpaired delimiters, empty bodies and the
    commands past the bound are reported as warnings, never raised.
    """
    commands: list[Command] = []
    warnings: list[str] = []
    pieces = llm_output.split("$")
    for body in pieces[1:-1:2]:  # the bodies between delimiter pairs
        msf = _MSF_PREFIX.match(body)
        channel = CommandChannel.MSFCONSOLE if msf else CommandChannel.SHELL
        if raw := (body[msf.end():] if msf else body).strip():
            commands.append(Command(raw, channel))
        else:
            warnings.append("empty msfconsole command" if msf
                            else "empty command between $ delimiters")
    if len(pieces) % 2 == 0 and (fragment := pieces[-1].strip()):  # a $ with no pair
        warnings.append(f"unpaired $ delimiter near: {fragment[:60]!r}")
    commands, bound_warnings = keep_first(commands, MAX_COMMANDS, "command(s)")
    return commands, warnings + bound_warnings


def execute(command: Command, backend: ExecutorBackend) -> tuple[str, Union[int, str]]:
    """Run one command on the backend; output is capped at 64 KiB."""
    try:
        output, status = backend.run(command)
    except Exception as exc:  # spawn failures become records, the loop continues
        return f"execution error: {exc}", -1
    return clip_summary(output, OUTPUT_CAP), status


def summarize(command_text: str, raw_output: str, gateway: Gateway) -> str:
    """Light-tier condensation of one command's output, hard-capped at 1200 chars."""
    if not raw_output.strip():
        return NO_OUTPUT_TEXT
    reply = ask(gateway, AgentRole.SUMMARIZER, "condense",
                {"command": command_text, "output": raw_output})
    return clip_summary(reply, SUMMARY_CAP)


# ---------------------------------------------------------------------------
# Planner interactions
# ---------------------------------------------------------------------------


def initial_plan(config: RunConfig, gateway: Gateway) -> tuple[PlanTable, list[str]]:
    response = ask(gateway, AgentRole.PLANNER, "init", {"target": config.target_address})
    lines = parse_plan_text(response)
    if not lines:
        raise EngineError("planner produced no parseable initial plan")
    plan = PlanTable()
    return plan, merge_revision(plan, lines)


def select_next_task(plan: PlanTable, gateway: Gateway) -> str:
    """The planner's pick of the next to-do task id, else the first depth-first. A to-do task
    exists: ``run_pentest`` selects only after ``termination_reason`` finds one."""
    todo = plan.todo()
    response = ask(gateway, AgentRole.PLANNER, "select", {"plan": render_plan(plan)})
    for token in re.findall(r"\d+(?:\.\d+)*", response):
        if token in todo:
            return token
    return todo[0]


def update_plan(plan: PlanTable, task_id: str, summary: str, gateway: Gateway) -> list[str]:
    """Let the planner settle the to-do task ``run_pentest`` just selected; returns the warnings."""
    task = plan.tasks[task_id]
    variables = {"plan": render_plan(plan), "task_id": task_id, "summary": summary}
    response = ask(gateway, AgentRole.PLANNER, "update", variables)
    lines = parse_plan_text(response)
    if not lines:
        mark_task(plan, task_id, TaskStatus.FAILED, PARSE_FAILURE_TEXT)
        return [f"{task_id}: {PARSE_FAILURE_TEXT}"]
    warnings = merge_revision(plan, lines)
    description, status, result = task  # merged in place
    if status is TaskStatus.TODO:
        mark_task(plan, task_id, TaskStatus.FAILED, summary or PARSE_FAILURE_TEXT)
        warnings.append(f"{task_id}: planner did not settle the task; marked failed")
    elif result == NO_RESULT_TEXT:
        merge_revision(plan, [TaskNode(task_id, description, status, summary)])
    return warnings


@functools.lru_cache(maxsize=COVERAGE_MEMO)
def _finding_matcher(finding: Vulnerability) -> Callable[[str], Optional[re.Match]]:
    """A search of lower-cased text for the finding's id, its service as a word, or its port."""
    terms = []
    if finding.id.upper() != CVE_NA:
        terms.append(re.escape(finding.id.lower()))
    service = finding.service.strip().lower()
    if service:
        terms.append(rf"(?<!\w){re.escape(service)}(?!\w)")
    if finding.port is not None:
        terms.append(rf"\bport\s+{finding.port}\b")
    return re.compile("|".join(terms) or r"(?!)").search  # (?!) never matches


@functools.lru_cache(maxsize=COVERAGE_MEMO)
def _covers(vuln_id: str, service: str, port: Optional[int], text: str) -> bool:
    """Whether lower-cased task text names the finding; keyed by what _finding_matcher reads."""
    return _finding_matcher(Vulnerability(vuln_id, service, port))(text) is not None


def counterfactual_update(
    plan: PlanTable, findings: list[Vulnerability], gateway: Gateway
) -> list[str]:
    """Re-plan as if the ``findings`` (not empty: ``run_pentest`` asks only after new ones) did
    not exist, then force-mark completed each to-do task that still covers one: the guarantee is
    mechanical, not left to the model. Returns the warnings."""
    variables = {"findings": format_finding_lines(findings), "plan": render_plan(plan)}
    response = ask(gateway, AgentRole.PLANNER, "counterfactual", variables)
    lines = parse_plan_text(response)
    warnings = merge_revision(plan, lines)
    if not lines:
        warnings.append("counterfactual revision unparseable; kept previous plan")

    forced = []
    for task_id in plan.todo():
        description = plan.tasks[task_id][0]
        text = description.lower()
        for f in findings:  # the first finding the task covers
            if _covers(f.id, f.service, f.port, text):
                verified = f"already exploited: {f.id} on {f.service} (verified)"
                forced.append(TaskNode(task_id, description, TaskStatus.COMPLETED, verified))
                break
    if forced:
        merge_revision(plan, forced)
    return warnings


# ---------------------------------------------------------------------------
# Finding extraction
# ---------------------------------------------------------------------------

_EXPLOITED_LINE = re.compile(r"^\s*(?a:exploited)\s*:\s*(.+?)\s*$", re.IGNORECASE)
_ATTR_LINE = re.compile(r"^\s*([A-Za-z_ ]+?)\s*:\s*(.*?)\s*$")
_CVE_TOKEN = re.compile(rf"(?a:{CVE_ID})(?!\d)|(?a:{CVE_NA})", re.IGNORECASE)  # more digits: no id
MAX_FINDINGS = 32  # "Exploited:" blocks parsed from one extractor reply, in reply order
MAX_SERVICE_CHARS = 64  # of a block's service name kept; it leads each Estimator request


def parse_extractor_blocks(text: str) -> tuple[list[Vulnerability], list[str]]:
    """Parse the first MAX_FINDINGS "Exploited:" blocks into findings, warning of skipped ones."""
    blocks: list[list[str]] = []  # each: the header's id text, then the block's lines
    for line in text.strip().splitlines():
        if match := _EXPLOITED_LINE.match(line):
            blocks.append([match.group(1)])
        elif blocks:
            blocks[-1].append(line)

    blocks, bound_warnings = keep_first(blocks, MAX_FINDINGS, "block(s)")
    findings: list[Vulnerability] = []
    warnings: list[str] = []
    for block in blocks:
        header = block[0]
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
            digits = re.search(r"(?a:\d+)", port_text)
            number = digits.group(0).lstrip("0") if digits else ""
            if digits and len(number) <= 5 and int(number or 0) <= 65535:  # int() caps digits
                port = int(number or 0)
            else:
                warnings.append(f"unparseable port {port_text[:60]!r} for {vuln_id[:60]}")
        service, clipped = keep_first(attrs.get("service", "unknown").strip().lower(),
                                      MAX_SERVICE_CHARS, "service character(s) of " + vuln_id)
        warnings += clipped
        findings.append(
            Vulnerability(
                id=vuln_id,
                service=service.rstrip(),
                port=port,
                description=attrs.get("description", ""),
                exploitation_method=attrs.get("method", attrs.get("exploitation_method", "")),
            )
        )
    return dedupe_findings(findings), warnings + bound_warnings


def extract_findings(
    records: list[ExecutionRecord], gateway: Gateway
) -> tuple[list[Vulnerability], list[str]]:
    """Run the extractor over executed commands and their summaries."""
    if not records:
        return [], []
    history_text = "\n".join(
        f"Command: {r.command}\nSummary: {r.summary}" for r in records
    )
    response = ask(gateway, AgentRole.EXTRACTOR, "extract", {"history": history_text})
    return parse_extractor_blocks(response)


# ---------------------------------------------------------------------------
# Termination
# ---------------------------------------------------------------------------


def termination_reason(
    plan: PlanTable, iterations: list[IterationLog], config: RunConfig
) -> Optional[str]:
    """Why the loop stops after the ``iterations`` logged so far, or None to run another.

    In order: the iteration budget is spent, no to-do task remains, or the
    last ``no_new_finding_window`` iterations found nothing and left the plan
    unchanged. Stagnation never fires before the first iteration.
    """
    if len(iterations) >= config.max_iterations:
        return "budget-exhausted"
    if not plan.todo():
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
    knowledge_base: KnowledgeBase,
) -> PentestResult:
    """Run the full pentest loop and return history, final plan and findings."""
    config.validate()
    _parse_plan_line.cache_clear()  # each run parses its own distinct lines once
    _covers.cache_clear()  # and checks each task text against each finding once
    plan, warnings = initial_plan(config, gateway)
    history: list[ExecutionRecord] = []
    findings_so_far: list[Vulnerability] = []
    iterations: list[IterationLog] = []

    while (termination := termination_reason(plan, iterations, config)) is None:
        version = plan.version
        task_id = select_next_task(plan, gateway)
        description = plan.tasks[task_id][0]

        excerpts = []
        if len(knowledge_base):
            excerpts = knowledge_base.retrieve(description, config.retrieval_k)

        variables = {"task": description, "excerpts": format_excerpts(excerpts)}
        commands, cmd_warnings = ask(
            gateway, AgentRole.EXECUTOR, "instructor", variables,
            system=render_prompt(AgentRole.EXECUTOR, variables, "system"), parse=parse_commands)
        warnings.extend(cmd_warnings)

        new_findings: list[Vulnerability] = []
        if not commands:
            mark_task(plan, task_id, TaskStatus.FAILED, "no executable command produced")
            warnings.append(f"{task_id}: executor produced no command twice")
        else:
            start = len(history)
            for command in commands:
                output, status = execute(command, executor_backend)
                summary = summarize(command.raw, output, gateway)
                record = ExecutionRecord(command.raw, command.channel, output, summary, status)
                history.append(record)

            candidates, extract_warnings = extract_findings(history[start:], gateway)
            warnings.extend(extract_warnings)
            known = {v.key for v in findings_so_far}
            new_findings = [v for v in candidates if v.key not in known]
            findings_so_far.extend(new_findings)

            combined = clip_summary(
                " / ".join(r.summary for r in history[start:]), SUMMARY_CAP
            )
            warnings.extend(update_plan(plan, task_id, combined, gateway))

        if new_findings:
            warnings.extend(counterfactual_update(plan, list(findings_so_far), gateway))

        iterations.append(IterationLog(
            iteration=len(iterations) + 1, task_id=task_id,
            new_finding_keys=tuple(v.key_str for v in new_findings),
            command_count=len(commands), plan_changed=plan.version != version))

    final_findings, final_warnings = extract_findings(history, gateway)
    warnings.extend(final_warnings)
    findings = dedupe_findings(findings_so_far + final_findings)

    return PentestResult(history=history, plan=plan.freeze(), findings=findings,
                         iterations=iterations, termination_reason=termination,
                         warnings=warnings)
