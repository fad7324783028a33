"""Every module-level name, method and property under ``src/`` has a
production use, and every field and attribute of its classes a reader."""

import ast
import re
from pathlib import Path

from snapcheck import snapshot
from snapcheck.snapshot import _STEPS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "snapcheck"
# names that a package carries by convention, with no caller of its own
CONVENTIONAL = {"__version__"}


def _defined(tree):
    """The module-level names a module defines, with their definitions."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _methods(tree):
    """The methods and properties of a module's classes, with their
    definitions; dunder methods are the language's to call."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item


def _mentions(node, strings):
    """The names a node mentions: as a name, an attribute, an imported
    name, or, with ``strings``, a string (``perfbench/tracing.py`` names
    the layers it wraps by string)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name]
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _sources():
    """The parsed modules of ``src/`` and ``perfbench/``, and the names the
    package exports."""
    trees = {
        path: ast.parse(path.read_text())
        for folder in (ROOT / "src", ROOT / "perfbench")
        for path in sorted(folder.rglob("*.py"))
    }
    init = trees[PACKAGE / "__init__.py"]
    return trees, {n for node in ast.walk(init) for n in _mentions(node, False)}


def test_every_module_level_name_has_a_production_use():
    """Each name a module under ``src/snapcheck`` defines at module level,
    and each method and property of its classes, is mentioned in ``src/``
    or ``perfbench/`` outside its own definition, or exported by the
    package: a name that only tests reach belongs in the tests."""
    trees, exported = _sources()
    mentions = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            for name in _mentions(node, path.parent.name == "perfbench"):
                mentions.setdefault(name, []).append(node)
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for name, definition in [*_defined(tree), *_methods(tree)]:
            if name in exported or name in CONVENTIONAL:
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in mentions.get(name, ())):
                unused.append(f"{path.name}: {name}")
    assert not unused, "names without a production use: " + ", ".join(unused)


def _has_fields(node):
    """Whether a class definition declares its fields by annotation: it is
    decorated with ``dataclass`` or subclasses ``NamedTuple``."""
    return any(
        name in {n for sub in ast.walk(d) for n in _mentions(sub, False)}
        for name, nodes in (("dataclass", node.decorator_list), ("NamedTuple", node.bases))
        for d in nodes
    )


def _attributes(tree):
    """The attributes a module's classes keep, with their classes: each
    field of a dataclass or a ``NamedTuple``, and each attribute a method
    assigns on ``self``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if _has_fields(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                yield node.name, sub.attr


def _unread(trees, exported):
    """The fields and attributes of the classes under ``src/snapcheck``
    that nothing in ``trees`` reads, as ``module: Class.name``."""
    read = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif path.parent.name == "perfbench" and isinstance(node, ast.Constant):
                read.add(node.value)
    return {
        f"{path.name}: {cls}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for cls, name in _attributes(tree)
        if cls not in exported and name not in read
    }


def test_every_field_and_attribute_is_read():
    """Each field of a dataclass or a ``NamedTuple``, and each attribute
    assigned on ``self``, of a class under ``src/snapcheck`` is read:
    loaded as an attribute in ``src/`` or ``perfbench/``, or named by a
    string in ``perfbench/``.  State that is computed but never read costs
    its upkeep for nothing.  The fields of the classes the package exports
    are the API's."""
    unread = _unread(*_sources())
    assert not unread, "state that nothing reads: " + ", ".join(sorted(unread))


def test_unread_fields_fail_the_rule():
    """The rule sees a field that nothing reads, of a ``NamedTuple`` as of
    a dataclass, and no field that something reads."""
    trees, exported = _sources()
    module = """
from dataclasses import dataclass
from typing import NamedTuple

class Record(NamedTuple):
    read_field: int
    unread_tuple_field: int

@dataclass(frozen=True)
class Frozen:
    unread_class_field: int

def use(r):
    return r.read_field
"""
    trees[PACKAGE / "_probe.py"] = ast.parse(module)
    unread = _unread(trees, exported)
    assert "_probe.py: Record.unread_tuple_field" in unread
    assert "_probe.py: Frozen.unread_class_field" in unread
    assert not any("read_field" in entry for entry in unread)


def _defaulted(tree):
    """The functions and methods a module defines, each with the parameters
    it gives a default: a parameter's name and, for one that may be passed
    by position, the position it takes in a call (a method's ``self`` or
    ``cls`` is not passed there)."""
    functions = [(node, False) for node in tree.body]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [(item, True) for item in node.body]
    for fn, method in functions:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = {n for d in fn.decorator_list for n in _mentions(d, False)}
        skip = 1 if method and "staticmethod" not in decorators else 0
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        params = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        if params:
            yield fn, params


def _omits(call, name, position):
    """Whether ``call`` leaves the parameter ``name`` to its default; a call
    that passes ``*args`` or ``**kwargs`` may."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None for k in call.keywords):
        return True
    if position is not None and len(call.args) > position:
        return False
    return all(k.arg != name for k in call.keywords)


def test_every_parameter_default_is_used():
    """Each default a function or method under ``src/snapcheck`` gives a
    parameter is taken by some call in ``src/`` or ``perfbench/``, matched
    by the callee's name: a default that every caller overrides is an
    option nothing sets.  The functions the package exports are the
    API's."""
    trees, exported = _sources()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for name in _mentions(node.func, False):
                    calls.setdefault(name, []).append(node)
    unused = [
        f"{path.name}: {fn.name}({name}=...)"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for fn, params in _defaulted(tree)
        if fn.name not in exported
        for name, position in params
        if not any(_omits(call, name, position) for call in calls.get(fn.name, ()))
    ]
    assert not unused, "defaults that no call takes: " + ", ".join(unused)


def _annotations(tree):
    """The annotations of a module's functions, arguments and annotated
    assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _reads(tree):
    """The names a module reads: every name loaded, also inside a string
    annotation (a name imported for type checking alone is read there)."""
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
    read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                parsed = ast.parse(const.value, mode="eval")
                read |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return read


def test_every_imported_name_is_read():
    """Each name a module under ``src/snapcheck`` imports is read in that
    module: an import alone is no use, and would count as one for the rule
    of ``test_every_module_level_name_has_a_production_use``.  The
    package's ``__init__.py`` imports to re-export."""
    trees, _ = _sources()
    unread = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        read = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{path.name}: {bound}")
    assert not unread, "imported names that nothing reads: " + ", ".join(unread)


def _scopes():
    """What a dotted reference may start from, each with the names it
    holds: the package, each module under ``src/snapcheck`` by its name,
    and each class there by its name, with its methods, fields and
    attributes."""
    trees, _ = _sources()
    package, classes = {}, {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        module = package[path.stem] = {}
        for name, node in _defined(tree):
            module[name] = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = classes.setdefault(node.name, {})
                members.update((name, {}) for name, _ in _methods(ast.Module([node], [])))
                members.update((attr, {}) for _, attr in _attributes(ast.Module([node], [])))
                module[node.name] = members
    return {"snapcheck": package, **package, **classes}


def _resolves(reference, roots):
    """Whether a dotted ``reference`` names something from ``roots``; an
    undotted one may name anything defined at any depth."""
    parts = reference.removeprefix("~").split(".")
    if len(parts) == 1:
        stack = list(roots.values())
        while stack:
            scope = stack.pop()
            if parts[0] in scope:
                return True
            stack += scope.values()
        return parts[0] in roots
    scope = roots.get(parts[0])
    for part in parts[1:]:
        if scope is None:
            return False
        scope = scope.get(part)
    return scope is not None


def test_documented_names_exist():
    """Each backticked dotted name in ``README.md`` (cut at its first
    ``(``; a file of the repository is not a name) and each ``:func:``,
    ``:meth:`` and ``:class:`` target in ``src/`` names something defined
    under ``src/snapcheck``: prose that names a deleted or renamed
    function sends its reader nowhere."""
    roots = _scopes()
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = (span.split("(")[0] for span in re.findall(r"`([^`\n]+)`", readme))
    dotted = [
        span
        for span in spans
        if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span) and not (ROOT / span).exists()
    ]
    roles = [
        target
        for path in sorted((ROOT / "src").rglob("*.py"))
        for target in re.findall(r":(?:func|meth|class):`([^`]+)`", path.read_text())
    ]
    assert len(dotted) > 10 and len(roles) > 10
    unknown = sorted({ref for ref in dotted + roles if not _resolves(ref, roots)})
    assert not unknown, "documented names that nothing defines: " + ", ".join(unknown)


def test_harness_names_no_step_kind():
    """No string constant in ``harness.py`` is a step kind or a call kind:
    what a step of each kind does, reads, checks and returns, a call's
    postcondition among it, is decided in ``snapshot``, and the harness
    only composes the effects and memoises them."""
    kinds = {step.kind for steps in _STEPS.values() for step in steps} | {"write", "scan"}
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    named = sorted(
        {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in kinds
        }
    )
    assert not named, "step or call kinds named in harness.py: " + ", ".join(named)


def test_harness_reads_only_callables_from_snapshot():
    """Every name that ``harness.py`` reads from ``snapshot``, imported or
    as an attribute of the module, is callable: a function, a class or
    ``frame_key``'s attrgetter.  So no set of step kinds, or other datum
    of ``snapshot``'s, steers the harness; it only calls what ``snapshot``
    decides."""
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "snapshot":
            read.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "snapshot"
        ):
            read.add(node.attr)
    assert len(read) > 10 and "frame_key" in read
    data = sorted(name for name in read if not callable(getattr(snapshot, name)))
    assert not data, "harness.py reads data from snapshot: " + ", ".join(data)


def _timed_layers():
    """``perfbench/tracing.py``'s ``LAYERS``, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    [value] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and _mentions(node.target, False) == ["LAYERS"]
    ]
    return ast.literal_eval(value)


def test_harness_imports_from_snapshot_only_what_perfbench_times():
    """``harness.py`` imports from ``snapshot`` by name only classes and
    the functions that ``perfbench/tracing.py`` times as harness
    attributes, each one a layer of ``snapshot``'s; it reads every other
    function of ``snapshot`` off the module when it runs.  So one binding
    of each step function is what ``explore``, the drive loop and
    ``step_state`` all call, and a mutant of the algorithm patched once on
    ``snapshot`` is the one every scheduler runs."""
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "snapshot"
        for alias in node.names
    }
    functions = {name for name in imported if not isinstance(getattr(snapshot, name), type)}
    timed = {
        attr
        for module, attr, layer in _timed_layers()
        if module == "harness" and layer.startswith("snapshot.")
    }
    assert timed == {"apply_step", "make_frame", "phys_digest", "aux_digest"}
    assert functions == timed, "functions harness.py imports from snapshot: " + ", ".join(
        sorted(functions)
    )
