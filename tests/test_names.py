"""Every module-level name, method and property under ``src/`` has a
production use, and every field and attribute of its classes a reader."""

import ast
from pathlib import Path

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


def _is_dataclass(node):
    """Whether a class definition is decorated with ``dataclass``."""
    return any(
        "dataclass" in {n for sub in ast.walk(d) for n in _mentions(sub, False)}
        for d in node.decorator_list
    )


def _attributes(tree):
    """The attributes a module's classes keep, with their classes: each
    dataclass field, and each attribute a method assigns on ``self``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_dataclass(node):
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


def test_every_field_and_attribute_is_read():
    """Each dataclass field, and each attribute assigned on ``self``, of a
    class under ``src/snapcheck`` is read: loaded as an attribute in
    ``src/`` or ``perfbench/``, or named by a string in ``perfbench/``.
    State that is computed but never read costs its upkeep for nothing.
    The fields of the classes the package exports are the API's."""
    trees, exported = _sources()
    read = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif path.parent.name == "perfbench" and isinstance(node, ast.Constant):
                read.add(node.value)
    unread = {
        f"{path.name}: {cls}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for cls, name in _attributes(tree)
        if cls not in exported and name not in read
    }
    assert not unread, "state that nothing reads: " + ", ".join(sorted(unread))


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
