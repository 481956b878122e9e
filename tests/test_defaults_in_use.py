"""Every option, parameter and result field of the package is in use.

A default that no call in ``src/scalerep`` overrides is a constant dressed as
an option: only tests can reach its other values.  This test reads the
sources with ``ast`` and names each such parameter.  A parameter counts as
set when a call to a function of the same name (directly, as an attribute,
or through ``functools.partial``) passes it by keyword, by position, or by
``*``/``**`` unpacking, or when a call through a local name, such as an
evaluator held in a variable, passes a keyword of that name.  A caller that
forwards its own ``**`` parameter sets only the keywords some call passes
to that caller.

Three more guards read the same sources.  A parameter of a public function or
method that its body never reads is an input with no effect; a leading
underscore declares a parameter unused on purpose (``cli``'s subcommand
handlers take the parsed arguments whether they read them or not).  A
dataclass field declared in ``src/scalerep`` that no attribute read in
``src/`` or ``bench/`` names (``getattr`` with a constant name included) is
a result nothing consumes.  Fields are matched by attribute name alone, so a
field passes when any object's attribute of that name is read: the reads of
``TypeEstimate.n`` would also cover an unread ``n`` of another result.  No
module names numpy's strided views (``stride_tricks``, ``as_strided``,
``sliding_window_view``), whose wrong stride reads past a buffer without
error: every band is held by its diagonals (``scale.banded_apply``).
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scalerep"

STRIDED_VIEWS = {"stride_tricks", "as_strided", "sliding_window_view"}

# (module, function, parameter) -> why it stays an option
ALLOWED = {
    ("hilleyosida", "resolvent_laplace", "nodes_per_panel"):
        "bench/layertrace.py reads it to count quadrature nodes",
    ("cli", "main", "argv"): "the console script calls main() with no arguments",
}

# (module, dataclass, field) -> why it stays though nothing reads it
ALLOWED_FIELDS = {
    ("hilleyosida", "LaplaceResult", "tail_bound"):
        "the accuracy the Laplace route certifies: the tests assert it, and a "
        "trace sidecar is to record it",
}


def _public_functions(tree):
    """(function, number of bound leading parameters) of every public function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, 0
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
                    yield f, 0 if static else 1


def _public_defaults(tree, module):
    """(module, function, parameter, positional index or None) of every defaulted parameter."""
    for f, bound in _public_functions(tree):
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield module, f.name, arg.arg, index - bound
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield module, f.name, arg.arg, None


def _module_names(tree):
    names = set(dir(builtins))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _calls(tree):
    """(callee name, positional args, keywords, through a local name, caller, the
    caller's ``**`` parameter) of every call; the caller is the innermost function
    around the call."""
    known = _module_names(tree)
    enclosing = {}
    for f in ast.walk(tree):  # outer functions first, so inner ones claim their own calls
        if isinstance(f, ast.FunctionDef):
            enclosing.update((node, f) for node in ast.walk(f))
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        caller = enclosing.get(call)
        kwarg = caller.args.kwarg if caller else None
        where = (caller.name if caller else None, kwarg.arg if kwarg else None)
        func, args = call.func, call.args
        if isinstance(func, ast.Name) and func.id == "partial" and args:
            func, args = args[0], args[1:]
        if isinstance(func, ast.Name):
            yield (func.id, args, call.keywords, func.id not in known, *where)
        elif isinstance(func, ast.Attribute):
            yield (func.attr, args, call.keywords, False, *where)


def _is_set(function, parameter, index, calls, seen=()):
    for name, args, keywords, local, caller, forwarded in calls:
        if any(k.arg == parameter for k in keywords) and (local or name == function):
            return True
        if name != function:
            continue
        for k in keywords:
            if k.arg is not None:
                continue
            if not (isinstance(k.value, ast.Name) and k.value.id == forwarded):
                return True
            # the caller's own **: it holds only the keywords its callers pass
            if caller not in seen and _is_set(caller, parameter, None, calls, seen + (caller,)):
                return True
        if any(isinstance(a, ast.Starred) for a in args):
            return True
        if index is not None and len(args) > index:
            return True
    return False


def _trees(directory):
    return {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def unset_defaults():
    trees = _trees(SRC)
    calls = [call for tree in trees.values() for call in _calls(tree)]
    defaults = [d for module, tree in trees.items() for d in _public_defaults(tree, module)]
    return {d[:3] for d in defaults if not _is_set(d[1], d[2], d[3], calls)}, defaults


def test_every_defaulted_public_parameter_is_set_by_a_call_in_the_package():
    unset, defaults = unset_defaults()
    assert sorted(unset - ALLOWED.keys()) == []
    # an allowlist entry names a parameter that still exists and is still unset
    assert ALLOWED.keys() <= {d[:3] for d in defaults}
    assert ALLOWED.keys() <= unset


def unread_parameters():
    """(module, function, parameter) of every public parameter its function never reads."""
    unread = set()
    for module, tree in _trees(SRC).items():
        for f, bound in _public_functions(tree):
            a = f.args
            params = (a.posonlyargs + a.args)[bound:] + a.kwonlyargs + [a.vararg, a.kwarg]
            read = {
                node.id
                for statement in f.body
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            # a leading underscore declares a parameter unused, as in a handler's signature
            unread |= {
                (module, f.name, p.arg)
                for p in params
                if p and not p.arg.startswith("_") and p.arg not in read
            }
    return unread


def _dataclass_fields(tree, module):
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", None) == "dataclass" for d in decorators):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                    yield module, node.name, statement.target.id


def _attribute_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value


def unread_fields():
    """(module, dataclass, field) of every field no attribute read in src/ or bench/ names."""
    src = _trees(SRC)
    reads = {
        name for tree in [*src.values(), *_trees(ROOT / "bench").values()]
        for name in _attribute_reads(tree)
    }
    declared = {f for module, tree in src.items() for f in _dataclass_fields(tree, module)}
    return {f for f in declared if f[2] not in reads}, declared


def test_every_public_parameter_is_read():
    assert sorted(unread_parameters()) == []


def test_every_dataclass_field_is_read_by_some_code():
    unread, declared = unread_fields()
    assert sorted(unread - ALLOWED_FIELDS.keys()) == []
    # an allowlist entry names a field that still exists and is still unread
    assert ALLOWED_FIELDS.keys() <= declared
    assert ALLOWED_FIELDS.keys() <= unread


def _names(tree):
    """Every name, attribute, imported name and string constant of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            yield from (node.module or "").split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_module_uses_strided_views():
    found = {(module, name) for module, tree in _trees(SRC).items() for name in _names(tree)}
    assert sorted(f for f in found if f[1] in STRIDED_VIEWS) == []
