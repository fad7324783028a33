"""Every module-level name, method and property under ``src/`` has a
production use, and every field and attribute of its classes a reader."""

import ast
import importlib
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


def _named(annotation):
    """The names an annotation mentions, also inside a string."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parsed = ast.parse(node.value, mode="eval")
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _returns(trees):
    """The classes each function or method name is annotated to return."""
    returns = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                returns.setdefault(node.name, set()).update(_named(node.returns))
    return returns


def _classes(node, typed, returns):
    """The classes an expression may be: a name's, as ``typed`` holds it;
    or a call's, the class it constructs or the classes its function is
    annotated to return."""
    if isinstance(node, ast.Name):
        return typed.get(node.id, set())
    if isinstance(node, ast.Call):
        name = _mentions(node.func, False)
        return {*name, *returns.get(name[0], ())} if name else set()
    return set()


def _typed(scope, typed, returns):
    """``typed`` with the names a function or module scope binds: each
    annotated argument or assignment by its annotation, and each name
    assigned a call by :func:`_classes`."""
    typed = dict(typed)
    args = getattr(scope, "args", None)
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs] if args else ():
        if arg.annotation:
            typed[arg.arg] = _named(arg.annotation)
    nodes = list(scope.body)
    for node in nodes:  # the scope's own, not a nested function's or class's
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes += ast.iter_child_nodes(node)
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            typed[node.target.id] = _named(node.annotation)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    typed[target.id] = _classes(node.value, typed, returns)
    return typed


def _typed_reads(tree, returns):
    """Each attribute a module loads, with the classes its object may be:
    ``self`` in a method is the method's class, a name is what
    :func:`_typed` says in its scope or an enclosing one, a call is what
    :func:`_classes` says; anything else is no class."""
    reads = []

    def visit(node, cls, typed):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                visit(item, node.name, typed)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            typed = _typed(node, typed, returns)
            if cls is not None:
                typed["self"] = {cls}
            cls = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, _classes(node.value, typed, returns)))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, typed)

    visit(tree, None, _typed(tree, {}, returns))
    return reads


def _unread(trees, exported):
    """The fields and attributes of the classes under ``src/snapcheck``
    that nothing in ``trees`` reads, as ``module: Class.name``.  A name
    that one class declares is read by any load of it; a name that more
    than one declares is read for a class only by a load whose object
    :func:`_typed_reads` finds to be of that class."""
    declared, read = {}, {}
    for path, tree in trees.items():
        if path.parent == PACKAGE:
            for cls, name in _attributes(tree):
                declared.setdefault(name, set()).add(cls)
    returns = _returns(trees)
    for path, tree in trees.items():
        for name, classes in _typed_reads(tree, returns):
            read.setdefault(name, set()).update(classes or {None})
        if path.parent.name == "perfbench":
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant):
                    read.setdefault(node.value, set()).add(None)
    return {
        f"{path.name}: {cls}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for cls, name in _attributes(tree)
        if cls not in exported
        and not (name in read and (len(declared[name]) == 1 or cls in read[name]))
    }


def test_every_field_and_attribute_is_read():
    """Each field of a dataclass or a ``NamedTuple``, and each attribute
    assigned on ``self``, of a class under ``src/snapcheck`` is read:
    loaded as an attribute in ``src/`` or ``perfbench/``, or named by a
    string in ``perfbench/``.  Where classes share a field name, a load
    counts for a class only through ``self`` in its methods, or through a
    name annotated with it or bound to a call that builds or returns it,
    so another class's reads keep no field alive.  State that is computed
    but never read costs its upkeep for nothing.  The fields of the
    classes the package exports are the API's."""
    unread = _unread(*_sources())
    assert not unread, "state that nothing reads: " + ", ".join(sorted(unread))


def test_unread_fields_fail_the_rule():
    """The rule sees a field that nothing reads, of a ``NamedTuple`` as of
    a dataclass, and no field that something reads.  Of classes that share
    a field name, it sees the one whose field is read only through names
    of unknown class, or through ``self`` in another class."""
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

@dataclass
class Annotated:
    shared: int

@dataclass
class Built:
    shared: int

@dataclass
class Owned:
    shared: int

    def get(self):
        return self.shared

@dataclass
class Unread:
    shared: int

def use(r, a: Annotated, u):
    b = Built(1)
    return r.read_field, a.shared, b.shared, u.shared
"""
    trees[PACKAGE / "_probe.py"] = ast.parse(module)
    unread = _unread(trees, exported)
    assert "_probe.py: Record.unread_tuple_field" in unread
    assert "_probe.py: Frozen.unread_class_field" in unread
    assert not any("read_field" in entry for entry in unread)
    assert {entry for entry in unread if "shared" in entry} == {"_probe.py: Unread.shared"}


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
        read |= _named(annotation)
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


def _bound_functions(trees):
    """The functions of sibling modules that each module under
    ``src/snapcheck`` but ``__init__.py`` imports by name, as
    ``module: sibling.name``; a class, a constant or a type alias is no
    function."""
    bound = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                sibling = importlib.import_module(f"snapcheck.{node.module}")
                for alias in node.names:
                    value = getattr(sibling, alias.name)
                    if callable(value) and not isinstance(value, type):
                        bound.add(f"{path.stem}: {node.module}.{alias.name}")
    return bound


def test_modules_call_sibling_functions_through_the_module():
    """No module under ``src/snapcheck`` binds a sibling's function by
    name: it calls ``aux_model.hist_p(p, aux)``, not ``hist_p(p, aux)``.
    So one binding of each function is what every caller runs, and a
    mutant patched once on its module (of the stable order on
    ``aux_model``, of a step on ``snapshot``) is the one every check,
    transition and scheduler sees.  The exceptions are the functions that
    ``perfbench/tracing.py`` times as harness attributes, which it finds
    only there."""
    trees, _ = _sources()
    timed = {attr: layer for module, attr, layer in _timed_layers() if module == "harness"}
    steps = {attr for attr, layer in timed.items() if layer.startswith("snapshot.")}
    assert steps == {"apply_step", "make_frame", "phys_digest", "aux_digest"}
    bound = _bound_functions(trees)
    exempt = {e for e in bound if e.startswith("harness: ") and e.split(".")[-1] in timed}
    assert exempt == {f"harness: snapshot.{a}" for a in steps} | {"harness: aux_model.aux_key"}
    assert bound == exempt, "functions bound by name: " + ", ".join(sorted(bound - exempt))


def test_a_function_bound_by_name_fails_the_rule():
    """The rule sees a sibling's function imported by name, and no class
    or constant imported beside it."""
    trees, _ = _sources()
    module = "from .aux_model import WRITER_OFF, AuxState, hist_p\n"
    trees[PACKAGE / "_probe.py"] = ast.parse(module)
    assert {e for e in _bound_functions(trees) if e.startswith("_probe")} == {
        "_probe: aux_model.hist_p"
    }
