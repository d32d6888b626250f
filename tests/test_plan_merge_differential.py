"""Differential property: every plan edit is a ``merge_revision`` into the run's
``PlanTable``, and it edits a plan exactly as the mechanisms it replaced did.

The reference below is the earlier implementation: a fresh plan assembled from
dicts of child ids, ``merge_revision`` seeding that assembly from a depth-first
visit, ``mark_task`` rebuilding the tree around one replaced node, and a
recursive render of the frozen tree. Chains of revisions, marks and forced
completions folded through one table must, after every step, freeze to the
reference plan with the same warnings, render as the reference renders that
plan, and move the table's structure counter exactly when the plan's
(id, status) pairs change.
"""

from functools import partial
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plan_invariants import find, todo_ids, walk

from penheal.engine import (
    EngineError,
    PlanTable,
    mark_task,
    merge_revision,
    parse_plan_text,
    render_plan,
)
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
    while pending:  # until a pass defers every line it sees
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
        if len(deferred) == len(pending):
            break
        pending = deferred
    if pending:
        warnings.append(f"dropped {len(pending)} orphan task(s), the first "
                        f"{pending[0].id[:60]} (no parent in plan)")

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
    node = find(plan, task_id)
    if node is None:
        raise EngineError(f"no task {task_id} in plan")
    if node.status is not TaskStatus.TODO:
        return plan
    return ref_with_node(plan, node._replace(status=status, result_summary=clip_summary(result)))


def ref_render(plan):
    lines = []

    def emit(node, depth):
        line = f"{'  ' * depth}{node.id} {node.description} [{node.status.value}]"
        if node.result_summary is not None:
            line += f" - result: {node.result_summary}"
        lines.append(line)
        for child in node.children:
            emit(child, depth + 1)

    for root in plan.roots:
        emit(root, 0)
    return "\n".join(lines)


def ref_structure(plan):
    """The (id, status) pairs, depth-first: what the stagnation check compares."""
    return [(n.id, n.status) for n in walk(plan)]


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
    table, ops = PlanTable(), []  # the table's edits, to replay onto a twin
    ref_plan = AttackPlan()

    def replay():
        twin = PlanTable()
        for op in ops:
            op(twin)
        return twin

    def step(op, ref_op):
        """Apply one edit to both sides and compare them after it."""
        nonlocal ref_plan
        version, structure = table.version, ref_structure(ref_plan)
        warnings = op(table) or []
        ref_plan, ref_warnings = ref_op(ref_plan)
        ops.append(op)
        assert (table.freeze(), warnings) == (ref_plan, ref_warnings)
        assert render_plan(table) == ref_render(ref_plan)
        assert (table.version != version) == (ref_structure(ref_plan) != structure)

    step(partial(merge_revision, lines=parse_plan_text(base)),
         lambda p: ref_build_plan(ref_lines(base)))
    for revision in revisions:
        step(partial(merge_revision, lines=parse_plan_text(revision)),
             lambda p: ref_merge_revision(p, ref_lines(revision)))

        task_id = data.draw(st.sampled_from(IDS), label="task")
        result = data.draw(MARK_RESULTS, label="result")
        if find(ref_plan, task_id) is None:
            for mark, plan in ((mark_task, table), (ref_mark_task, ref_plan)):
                with pytest.raises(EngineError):
                    mark(plan, task_id, TaskStatus.COMPLETED, result)
        else:
            for status in (TaskStatus.COMPLETED, TaskStatus.FAILED):
                twin = replay()
                mark_task(twin, task_id, status, result)
                assert twin.freeze() == ref_mark_task(ref_plan, task_id, status, result)
            status = data.draw(st.sampled_from([TaskStatus.COMPLETED, TaskStatus.FAILED]))
            step(partial(mark_task, task_id=task_id, status=status, result=result),
                 lambda p: (ref_mark_task(p, task_id, status, result), []))

        # The counterfactual check force-completes to-do tasks, all in one merge.
        todo = [n for n in walk(ref_plan) if n.status is TaskStatus.TODO]
        forced = data.draw(st.lists(st.sampled_from(todo), unique_by=lambda n: n.id)
                           if todo else st.just([]), label="forced")
        verified = data.draw(MARK_RESULTS, label="verified")
        step(partial(merge_revision, lines=[n._replace(status=TaskStatus.COMPLETED,
                                                       result_summary=verified, children=())
                                            for n in forced]),
             lambda p: ref_merge_revision(p, [ParsedPlanLine(n.id, n.description,
                                                             TaskStatus.COMPLETED, verified)
                                              for n in forced]))


@settings(deadline=None, max_examples=200)
@given(st.lists(plan_text(0), min_size=1, max_size=5), st.data())
def test_todo_kept_per_version_is_the_to_do_ids_after_every_edit(revisions, data):
    """``todo`` is kept until ``version`` moves: after any chain of merges (adds, status changes,
    description and result edits) and marks, it equals the uncached list of to-do ids."""
    table = PlanTable()
    assert table.todo() == []
    for revision in revisions:
        merge_revision(table, parse_plan_text(revision))
        assert table.todo() == todo_ids(table.freeze())
        task_id = data.draw(st.sampled_from(IDS), label="task")
        if task_id in table.tasks:
            status = data.draw(st.sampled_from([TaskStatus.COMPLETED, TaskStatus.FAILED]))
            mark_task(table, task_id, status, data.draw(MARK_RESULTS, label="result"))
            assert table.todo() == todo_ids(table.freeze())
