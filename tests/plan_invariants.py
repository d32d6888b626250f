"""The attack-plan invariants, checked by tests of every stage that builds or edits a plan."""

import re
from typing import Iterator, Optional

from penheal.model import RESULT_SUMMARY_MAX, AttackPlan, TaskNode, TaskStatus


def walk(plan: AttackPlan) -> Iterator[TaskNode]:
    """Every task of a frozen plan, depth-first."""
    stack = list(reversed(plan.roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def find(plan: AttackPlan, task_id: str) -> Optional[TaskNode]:
    return next((node for node in walk(plan) if node.id == task_id), None)


def todo_ids(plan: AttackPlan) -> list[str]:
    """The to-do task ids of a frozen plan, depth-first: what ``PlanTable.todo`` must return."""
    return [node.id for node in walk(plan) if node.status is TaskStatus.TODO]


def validate_plan(plan: AttackPlan) -> list[str]:
    """Check every plan invariant; returns one message per violation.

    Total function: never raises, an empty list means the plan is well formed.
    """
    violations: list[str] = []
    if not plan.roots:
        violations.append("plan: no root tasks")

    seen_ids: set[str] = set()

    def check(node: TaskNode, parent_id: Optional[str]) -> None:
        if node.id in seen_ids:
            violations.append(f"{node.id}: duplicate id")
        seen_ids.add(node.id)

        if not re.match(r"^\d+(\.\d+)*$", node.id):
            violations.append(f"{node.id}: malformed id")
        elif parent_id is None:
            if "." in node.id:
                violations.append(f"{node.id}: root id must be a single segment")
        else:
            expected_prefix = parent_id + "."
            if not (
                node.id.startswith(expected_prefix)
                and "." not in node.id[len(expected_prefix):]
            ):
                violations.append(f"{node.id}: parent mismatch")

        if node.status is TaskStatus.TODO and node.result_summary is not None:
            violations.append(f"{node.id}: to-do task carries a result summary")
        if node.status is not TaskStatus.TODO and not node.result_summary:
            violations.append(f"{node.id}: missing result summary")
        if node.result_summary is not None and len(node.result_summary) > RESULT_SUMMARY_MAX:
            violations.append(f"{node.id}: result summary exceeds {RESULT_SUMMARY_MAX} chars")
        if not node.description.strip():
            violations.append(f"{node.id}: empty description")

        for child in node.children:
            check(child, node.id)

    for root in plan.roots:
        check(root, None)

    return violations
