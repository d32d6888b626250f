"""The request path is static: every agent request names its role and a catalog template,
and passes each placeholder that template names.

A kind that names no template, or a placeholder with no value, raises a ``KeyError`` only
when its call runs, which for a live-only path is too late; these checks read the source
instead. So do the checks that each helper which trusts its caller's state has that one caller.
"""

import ast
from pathlib import Path
from string import Formatter

import pytest

from penheal.gateway import AgentRole
from penheal.prompts import TEMPLATES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "penheal"


def enclosed_calls(node, function="<module>"):
    """(enclosing function, call) for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        yield from enclosed_calls(child, inner or function)


def located_calls(name):
    """(module, enclosing function, call) for every call of ``name`` or ``<anything>.name``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for function, node in enclosed_calls(ast.parse(path.read_text(encoding="utf-8"))):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                yield path.stem, function, node


def calls(name):
    """(module, call) for every call of ``name`` or ``<anything>.name`` in the package."""
    for module, _, node in located_calls(name):
        yield module, node


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


def placeholders(role, kind):
    """The names of the ``{name}`` placeholders in the role's ``kind`` template."""
    fields = Formatter().parse(TEMPLATES[(role, kind)])
    return {name for _, name, _, _ in fields if name is not None}


def dict_keys(node):
    """The keys of a dict display whose keys are all string literals, else None."""
    if isinstance(node, ast.Dict) and node.keys and all(literal(k) for k in node.keys):
        return {k.value for k in node.keys}
    return None


def bound_dicts():
    """(module, function, name) -> the keys of each dict a function binds to ``name``."""
    bound = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if (isinstance(node, ast.Assign) and len(node.targets) == 1
                            and isinstance(node.targets[0], ast.Name)):
                        key = (path.stem, function.name, node.targets[0].id)
                        bound.setdefault(key, []).append(dict_keys(node.value))
    return bound


def request_sites():
    """(module, enclosing function, call, role, kind, variables) for every request: each
    ``ask``, and each system turn rendered outside ``prompts``."""
    for module, function, call in located_calls("ask"):
        yield (module, function, call, role_named(argument(call, 1, "role")),
               literal(argument(call, 2, "kind")), argument(call, 3, "variables"))
    for module, function, call in located_calls("render_prompt"):
        if module != "prompts":
            yield (module, function, call, role_named(argument(call, 0, "role")), "system",
                   argument(call, 1, "variables"))


def test_every_request_passes_each_placeholder_of_its_template():
    """A ``variables`` name resolves to the one dict its function binds to it."""
    bound = bound_dicts()
    sites = list(request_sites())
    assert len(sites) == 12  # 10 asks, and the executor's and the evaluator's system turns
    for module, function, call, role, kind, variables in sites:
        where = f"{module}.py line {call.lineno}"
        names = dict_keys(variables)
        if isinstance(variables, ast.Name):
            bindings = bound.get((module, function, variables.id), [])
            names = bindings[0] if len(bindings) == 1 else None
        assert names is not None, f"{where}: the variables are not one dict of literal keys"
        missing = placeholders(role, kind) - names
        assert not missing, f"{where}: no value for {sorted(missing)} of {role.value}/{kind}"


def test_every_catalog_system_turn_has_no_placeholder():
    """``ask`` renders a role's catalog system turn with no variables."""
    for module, call in calls("ask"):
        if argument(call, 4, "system") is None:
            role = role_named(argument(call, 1, "role"))
            assert placeholders(role, "system") == set(), f"{module}.py line {call.lineno}"


def test_every_retry_template_names_only_the_error():
    """``ask`` renders a retry template with the failed attempt's ``error`` alone."""
    for role, kind in TEMPLATES:
        if kind == "retry":
            assert placeholders(role, kind) <= {"error"}, role.value


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


def test_only_ask_sends_a_request():
    """``Gateway.complete`` trusts its history to start with the system turn: outside
    ``gateway``, only ``prompts.ask`` calls it, and it builds every history that way."""
    senders = {(module, function) for module, function, _ in located_calls("complete")
               if module != "gateway"}
    assert senders == {("prompts", "ask")}


@pytest.mark.parametrize("step", ["select_next_task", "update_plan", "counterfactual_update"])
def test_only_the_loop_runs_a_plan_step(step):
    """Each step trusts the loop's state: ``select_next_task`` runs only while a to-do task
    remains, ``update_plan`` gets the task just selected, and ``counterfactual_update`` runs
    only after new findings."""
    assert {(module, function) for module, function, _ in located_calls(step)} == {
        ("engine", "run_pentest")}


def test_one_rule_bounds_every_list_a_reply_yields():
    """``model.keep_first`` alone words the bound warning, and each reply list's bound (and the
    extractor's service-name bound) is the ``bound`` of exactly one of its calls."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "model":
            assert "past the first" not in path.read_text(encoding="utf-8"), path.name
    bounds = [(module, argument(call, 1, "bound")) for module, call in calls("keep_first")]
    assert sorted((module, getattr(bound, "id", None)) for module, bound in bounds) == [
        ("engine", "MAX_COMMANDS"), ("engine", "MAX_FINDINGS"), ("engine", "MAX_SERVICE_CHARS"),
        ("remediation", "MAX_ADVISOR_ITEMS"), ("remediation", "MAX_EXTRA_TARGETS")]
