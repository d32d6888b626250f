"""Differential property: every plan edit is a ``merge_revision``, and it edits a plan
exactly as the three mechanisms it replaced did.

The reference below is the earlier implementation: a fresh plan assembled from
dicts of child ids, ``merge_revision`` seeding that assembly from a depth-first
visit, and ``mark_task`` rebuilding the tree around one replaced node. Chains of
build, merge and mark steps must give equal plans and equal warnings under both.
"""

from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penheal.engine import EngineError, mark_task, merge_revision, parse_plan_text
from penheal.model import RESULT_SUMMARY_MAX, AttackPlan, TaskNode, TaskStatus, clip_summary


# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------


class ParsedPlanLine(NamedTuple):
    id: str
    description: str
    status: TaskStatus
    result: Optional[str]


def ref_lines(text: str) -> list[ParsedPlanLine]:
    return [ParsedPlanLine(n.id, n.description, n.status, n.result_summary)
            for n in parse_plan_text(text)]


def ref_build_plan(lines):
    return ref_assemble({}, [], lines)


def ref_merge_revision(plan, lines):
    seed = {}
    root_ids = []

    def visit(node):
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
    return ref_assemble(seed, root_ids, lines)


def ref_assemble(seed, root_ids, lines):
    nodes = seed
    roots = list(root_ids)
    warnings = []

    pending = list(lines)
    for _ in range(2):
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

    for entry in nodes.values():
        if entry["status"] is not TaskStatus.TODO and not entry["result"]:
            entry["result"] = "(no result provided)"
        if entry["status"] is TaskStatus.TODO:
            entry["result"] = None

    def freeze(task_id):
        entry = nodes[task_id]
        return TaskNode(
            id=task_id,
            description=entry["description"],
            status=entry["status"],
            result_summary=entry["result"],
            children=tuple(freeze(c) for c in entry["children"]),
        )

    return AttackPlan(roots=tuple(freeze(r) for r in roots)), warnings


def ref_with_node(plan, node):
    def rebuild(current):
        if current.id == node.id:
            return node
        return current._replace(children=tuple(rebuild(c) for c in current.children))

    return AttackPlan(roots=tuple(rebuild(r) for r in plan.roots))


def ref_mark_task(plan, task_id, status, result):
    node = plan.find(task_id)
    if node is None:
        raise EngineError(f"no task {task_id} in plan")
    if node.status is not TaskStatus.TODO:
        return plan
    return ref_with_node(plan, node._replace(status=status, result_summary=clip_summary(result)))


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------

# Children of absent parents (2.1.1, 9.9) and ids repeated within a text come up often.
IDS = ["1", "2", "3", "4", "1.1", "1.2", "2.1", "2.1.1", "3.1", "4.1", "9.9"]
STATUS_WORDS = ["to-do", "to do", "todo", "completed", "done", "failed", "TODO", "Done"]
LONG = "r" * (RESULT_SUMMARY_MAX + 40)
RESULTS = st.one_of(st.none(), st.sampled_from(["", "   ", "ok", "root shell", LONG]),
                    st.text(min_size=1, max_size=8))
DESCRIPTIONS = st.one_of(st.sampled_from(["Scan ports", "Exploit the ftp backdoor", "x"]),
                         st.text("abc -", min_size=1, max_size=6))
MARK_RESULTS = st.one_of(st.sampled_from(["done", "planner-parse-failure", LONG]),
                         st.text(min_size=1, max_size=8))


@st.composite
def plan_line(draw):
    line = "{}{} {} [{}]".format(
        draw(st.sampled_from(["", "  "])), draw(st.sampled_from(IDS)),
        draw(DESCRIPTIONS), draw(st.sampled_from(STATUS_WORDS)))
    result = draw(RESULTS)
    return line if result is None else f"{line} - result: {result}"


def plan_text(min_size):
    return st.lists(plan_line(), min_size=min_size, max_size=8).map("\n".join)


@settings(deadline=None, max_examples=200)
@given(plan_text(1), st.lists(plan_text(0), min_size=1, max_size=3), st.data())
def test_merge_chains_match_the_reference(base, revisions, data):
    ref_plan, ref_warnings = ref_build_plan(ref_lines(base))
    plan, warnings = merge_revision(AttackPlan(), parse_plan_text(base))
    assert (plan, warnings) == (ref_plan, ref_warnings)
    for revision in revisions:
        ref_plan, ref_warnings = ref_merge_revision(ref_plan, ref_lines(revision))
        plan, warnings = merge_revision(plan, parse_plan_text(revision))
        assert (plan, warnings) == (ref_plan, ref_warnings)

        task_id = data.draw(st.sampled_from(IDS), label="task")
        result = data.draw(MARK_RESULTS, label="result")
        if plan.find(task_id) is None:
            for mark in (mark_task, ref_mark_task):
                with pytest.raises(EngineError):
                    mark(plan, task_id, TaskStatus.COMPLETED, result)
            continue
        for status in (TaskStatus.COMPLETED, TaskStatus.FAILED):
            assert (mark_task(plan, task_id, status, result)
                    == ref_mark_task(ref_plan, task_id, status, result))
        status = data.draw(st.sampled_from([TaskStatus.COMPLETED, TaskStatus.FAILED]))
        plan = mark_task(plan, task_id, status, result)
        ref_plan = ref_mark_task(ref_plan, task_id, status, result)
