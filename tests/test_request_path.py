"""The request path is static: every agent request names its role and a catalog template.

A kind that names no template raises ``PromptError`` only when its call runs, which for a
live-only path is too late; these checks read the source instead.
"""

import ast
from pathlib import Path

from penheal.gateway import AgentRole
from penheal.prompts import TEMPLATES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "penheal"


def calls(name):
    """(module, call) for every call of ``name`` or ``<anything>.name`` in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    yield path.stem, node


def argument(call, index, keyword):
    """The call's argument at ``index`` or passed as ``keyword``, else None."""
    if len(call.args) > index:
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == keyword), None)


def role_named(node):
    """The role a source expression names as ``AgentRole.X``, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "AgentRole" and node.attr in AgentRole.__members__):
        return AgentRole[node.attr]
    return None


def literal(node):
    """The string a source expression spells out, else None."""
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def test_every_ask_names_a_role_and_a_catalog_kind():
    asked = set()
    for module, call in calls("ask"):
        where = f"{module}.py line {call.lineno}"
        role = role_named(argument(call, 1, "role"))
        kind = literal(argument(call, 2, "kind"))
        assert role is not None, f"{where}: the role is not spelled AgentRole.X"
        assert kind is not None, f"{where}: the template kind is not a literal"
        assert (role, kind) in TEMPLATES, f"{where}: no {role.value}/{kind} template"
        asked.add(role)
    assert asked == set(AgentRole)  # each agent is asked somewhere, so none is missed


def test_every_role_asked_with_a_parser_has_a_retry_template():
    for module, call in calls("ask"):
        if argument(call, 5, "parse") is not None:
            role = role_named(argument(call, 1, "role"))
            assert (role, "retry") in TEMPLATES, f"{module}.py line {call.lineno}"


def test_only_prompts_renders_a_request_template():
    """Outside ``prompts``, a template is rendered only as a prebuilt system turn."""
    rendered = 0
    for module, call in calls("render_prompt"):
        if module == "prompts":
            continue
        kind = argument(call, 2, "kind")
        assert kind is None or literal(kind) == "system", f"{module}.py line {call.lineno}"
        rendered += 1
    assert rendered  # the executor's and the evaluator's system turns
