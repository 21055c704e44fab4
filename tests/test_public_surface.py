"""Every public module-level definition and class member in ``src/repro``
is reached.

A module-level function or class is reached when something other than
tests refers to it: code in ``src`` outside package ``__init__``
re-exports and outside the name's own definition, or any file under
``benchmarks``, ``perfbench`` or ``examples``.  A reference is a name,
an attribute, an imported name or a string holding exactly the name
(perfbench binds its trace points by module and attribute strings).

A public method or property of a class is reached when its name is
accessed as an attribute in ``src`` outside its own definition, or is
referred to anywhere under ``benchmarks``, ``perfbench`` or
``examples`` (a dotted string such as ``"ControllerBank.demand"``
refers to each of its parts).  Dunders are exempt.

The few names nothing reaches on purpose are listed in :data:`ALLOWED`
and :data:`ALLOWED_MEMBERS`, each with its reason; anything else that
nothing reaches is dead surface and should be deleted, or moved under
``tests/`` when a test needs it as a reference or input generator.
"""

from __future__ import annotations

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "perfbench", "examples")

#: Public names no figure, CLI target or benchmark reaches, kept on purpose.
ALLOWED = {
    "quick_adapt": "documented API: the README quickstart",
    "results_table": "documented API: README's campaign-metrics table",
    "register_trace_adapter": "documented API: README's trace ingestion",
    "clear_measurement_cache": "hook tests use to reset module state",
    "set_measurement_cache_capacity": "hook tests use to reset module state",
    "memo_size": "hook tests use to check module state",
    "set_event_sink": "hook tests use to reset module state",
    "current_span": "hook tests use to check module state",
}

#: Public class members (``Class.member``) nothing outside tests reaches,
#: kept on purpose.
ALLOWED_MEMBERS: dict = {}


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _referenced(node: ast.AST, skip_imports: bool):
    """The names ``node`` refers to (see the module docstring)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.ImportFrom) and not skip_imports:
            yield from (alias.name for alias in child.names)
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
              and child.value.isidentifier()):
            yield child.value


def _scan():
    """Public definitions in ``src`` and, per name, who refers to it."""
    definitions = []
    references = defaultdict(set)
    files = [(path, True) for path in sorted(SRC.rglob("*.py"))]
    for directory in CALLER_DIRS:
        files += [(path, False) for path in sorted((ROOT / directory).rglob("*.py"))]
    for path, in_src in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        is_init = in_src and path.name == "__init__.py"
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                owner = top.name
                if in_src and not top.name.startswith("_"):
                    definitions.append((path, top))
            if _is_all(top):
                continue
            for name in _referenced(top, skip_imports=is_init):
                references[name].add((path, owner))
    return definitions, references


def _unreached():
    definitions, references = _scan()
    unreached = {}
    for path, node in definitions:
        users = references.get(node.name, set()) - {(path, node.name)}
        if not users:
            unreached[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return unreached


def test_every_public_definition_is_reached():
    dead = {
        name: where for name, where in _unreached().items()
        if name not in ALLOWED
    }
    assert not dead, (
        "public definitions nothing outside tests reaches (delete them, "
        f"move them under tests/, or list them in ALLOWED): {dead}"
    )


def test_allowlist_names_only_unreached_definitions():
    # A listed name that gained a caller, or no longer exists, is stale.
    assert set(ALLOWED) <= set(_unreached())
    assert all(reason.strip() for reason in ALLOWED.values())


def _unreached_members():
    """``Class.member`` -> location, for every unreached public member."""
    members = []
    accessed = Counter()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                members += [
                    (path, top.name, item) for item in top.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                ]
        accessed.update(
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        )
    callers = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name in _referenced(tree, skip_imports=False):
                callers.add(name)
            callers.update(
                part
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                for part in node.value.split(".")
            )
    unreached = {}
    for path, owner, node in members:
        own = sum(
            1 for child in ast.walk(node)
            if isinstance(child, ast.Attribute) and child.attr == node.name
        )
        if accessed[node.name] > own or node.name in callers:
            continue
        unreached[f"{owner}.{node.name}"] = (
            f"{path.relative_to(ROOT)}:{node.lineno}"
        )
    return unreached


def test_every_public_member_is_reached():
    dead = {
        name: where for name, where in _unreached_members().items()
        if name not in ALLOWED_MEMBERS
    }
    assert not dead, (
        "public methods/properties nothing outside tests reaches (delete "
        "them, or list them in ALLOWED_MEMBERS): "
        f"{dead}"
    )


def test_member_allowlist_names_only_unreached_members():
    assert set(ALLOWED_MEMBERS) <= set(_unreached_members())
    assert all(reason.strip() for reason in ALLOWED_MEMBERS.values())
