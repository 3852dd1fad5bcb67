"""Every public top-level function and class of gskit, and every public
method of a public class, has a caller in the package or in the benchmark
(perfbench/).  A name that only tests call belongs in the tests; a feature
that nothing calls is deleted.

The public top-level functions of a public module are resolved per module:
a use counts when it is `<module>.<name>` through a name that an import
binds to that module, `from .<module> import <name>` (or
`from gskit.<module> import <name>`), or a bare use inside the module
itself.  The functions of private modules (`_pure`, which `kernels` reaches
through `_impl`), the top-level classes and the methods are matched by name
alone, so a caller of one method of a name counts for every method of that
name.  Uses inside a definition itself (recursion, methods) do not count.
Every name that perfbench/spans.py traces must exist.

The same holds for parameters: every defaulted parameter of a public
function or method, of a public class's constructor and every defaulted
field of a public dataclass is passed, by position or by keyword, by some
call in the package or in the benchmark.  A default that no caller
overrides is a constant.  Calls resolve as uses do above, and
`workloads._attempt(out, key, fn, *args, **kwargs)` counts as a call of
fn."""
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _loaded_names(node) -> Counter:
    """How often each name is used under node, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _bare_names(node) -> Counter:
    """How often each name is used bare under node."""
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name))


def _imports(tree) -> tuple:
    """({alias: gskit module} bound by `from . import <module>` or
    `from gskit import <module>`, [(gskit module, name)] imported by
    `from .<module> import <name>` or `from gskit.<module> import <name>`)."""
    aliases, names = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module != "gskit" and not module.startswith("gskit."):
                continue
            module = module[len("gskit."):]
        for alias in node.names:
            if module:
                names.append((module, alias.name))
            else:
                aliases[alias.asname or alias.name] = alias.name
    return aliases, names


def _module_of(node, aliases):
    """The gskit module of the attribute node's base, `<alias>.<name>` or
    `gskit.<module>.<name>`, else None."""
    base = node.value
    if isinstance(base, ast.Name):
        return aliases.get(base.id)
    if (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
            and base.value.id == "gskit"):
        return base.attr
    return None


def _module_uses(tree) -> Counter:
    """How often tree uses each (gskit module, top-level name): as an
    attribute of a name bound to the module by `from . import <module>`,
    `from gskit import <module>` or `import gskit.<module>` (used as
    gskit.<module>.<name>), or imported by `from .<module> import <name>`
    or `from gskit.<module> import <name>`."""
    aliases, names = _imports(tree)
    uses = Counter(names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = _module_of(node, aliases)
            if module:
                uses[module, node.attr] += 1
    return uses


def _public_definitions(tree):
    """(qualified name, node) of the public top-level functions and classes
    and of the public methods of the public classes."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{node.name}.{m.name}", m


def _unused_definitions(src: list, bench: list) -> list:
    """Qualified names of the public definitions in the src modules that
    nothing in src or bench uses."""
    trees = {p: ast.parse(p.read_text()) for p in src + bench}
    used = {p: _loaded_names(tree) for p, tree in trees.items()}
    module_uses = sum((_module_uses(tree) for tree in trees.values()), Counter())
    unused = []
    for path in src:
        for qualname, node in _public_definitions(trees[path]):
            if (isinstance(node, ast.FunctionDef) and qualname == node.name
                    and not path.stem.startswith("_")):
                own = _bare_names(node)[node.name]
                found = (module_uses[path.stem, node.name]
                         or _bare_names(trees[path])[node.name] > own)
            else:
                own = _loaded_names(node)[node.name]
                found = any(counts[node.name] > (own if p == path else 0)
                            for p, counts in used.items())
            if not found:
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_public_definition_has_a_caller():
    unused = _unused_definitions(sorted((ROOT / "src" / "gskit").glob("*.py")),
                                 sorted((ROOT / "perfbench").glob("*.py")))
    assert not unused, f"public names without a caller in src/gskit or perfbench/: {unused}"


def _calls(path, tree):
    """(key, positional, keywords) of each call in tree: key the callee's
    (gskit module, name) where it resolves to a module's top-level function
    (a bare name in the module path itself), else (None, name); positional
    the number of positional arguments, None after a starred one (any
    number); keywords the names passed by keyword."""
    aliases, names = _imports(tree)
    imported = {name: module for module, name in names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "_attempt":
            func, args = args[2], args[3:]
        if isinstance(func, ast.Name):
            name = func.id
            module = imported.get(name, path.stem)
        elif isinstance(func, ast.Attribute):
            name, module = func.attr, _module_of(func, aliases)
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in args)
        positional = None if starred else len(args)
        keywords = {k.arg for k in node.keywords if k.arg}
        yield (module, name), positional, keywords
        yield (None, name), positional, keywords


def _defaulted(node) -> list:
    """(index, name) of the defaulted parameters of a function node; index
    counts the positional parameters after self, None for keyword-only ones."""
    a = node.args
    params = a.posonlyargs + a.args
    skip = 1 if params and params[0].arg == "self" else 0
    first = len(params) - len(a.defaults)
    out = [(i - skip, params[i].arg) for i in range(first, len(params))]
    out += [(None, arg.arg) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is not None]
    return out


def _fields(node) -> list:
    """(index, name) of the defaulted fields of a dataclass node, else []."""
    if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
        return []
    fields = [n for n in node.body
              if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    return [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]


def _defaulted_parameters(path, tree):
    """(qualified parameter name, call key, index, name) of each defaulted
    parameter the rule covers in a source module."""
    public_module = not path.stem.startswith("_")
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        if isinstance(node, ast.FunctionDef):
            key = (path.stem if public_module else None, node.name)
            for i, name in _defaulted(node):
                yield f"{path.stem}.{node.name}({name})", key, i, name
        elif isinstance(node, ast.ClassDef):
            for i, name in _fields(node):
                yield f"{path.stem}.{node.name}.{name}", (None, node.name), i, name
            for m in node.body:
                if not isinstance(m, ast.FunctionDef):
                    continue
                if m.name == "__init__":
                    key = (None, node.name)
                elif not m.name.startswith("_"):
                    key = (None, m.name)
                else:
                    continue
                for i, name in _defaulted(m):
                    yield f"{path.stem}.{node.name}.{m.name}({name})", key, i, name


def _unpassed_parameters(src: list, bench: list) -> list:
    """Qualified names of the defaulted parameters in the src modules that
    no call in src or bench passes."""
    trees = {p: ast.parse(p.read_text()) for p in src + bench}
    calls = {}
    for p, tree in trees.items():
        for key, positional, keywords in _calls(p, tree):
            calls.setdefault(key, []).append((positional, keywords))
    unpassed = []
    for path in src:
        for qualname, key, index, name in _defaulted_parameters(path, trees[path]):
            if not any(name in keywords or (index is not None and (
                           positional is None or positional > index))
                       for positional, keywords in calls.get(key, [])):
                unpassed.append(qualname)
    return unpassed


# defaulted parameters that no call in the package passes, with the reason
PARAMETERS_WITHOUT_A_CALLER = {
    "cli.main(argv)": "the console entry point (gskit = gskit.cli:main) calls main()",
    "kernels.ray_crossings(escape_sum)": "the map cell sets its escape region inside "
                                         "probe_cell; the probe oracle of "
                                         "tests/reference.py drives it from Python",
}


def test_every_defaulted_parameter_is_passed():
    unpassed = _unpassed_parameters(sorted((ROOT / "src" / "gskit").glob("*.py")),
                                    sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(unpassed) == sorted(PARAMETERS_WITHOUT_A_CALLER), (
        f"defaulted parameters that no call in src/gskit or perfbench/ passes: "
        f"{sorted(set(unpassed) - set(PARAMETERS_WITHOUT_A_CALLER))}")


def test_unpassed_parameters_are_found(tmp_path):
    # the check itself: a default passed by no call is reported, and one
    # passed through _attempt, by position or by keyword, is not
    src, bench = tmp_path / "mod.py", tmp_path / "workloads.py"
    src.write_text("def f(x, y=1, *, z=2):\n    return x\n\n"
                   "class C:\n    def m(self, a=0):\n        return a\n")
    bench.write_text("from gskit import mod\nmod.f(1)\nmod.C().m()\n")
    assert _unpassed_parameters([src], [bench]) == ["mod.f(y)", "mod.f(z)", "mod.C.m(a)"]
    bench.write_text("from gskit import mod\n_attempt(out, 'f', mod.f, 1, 2, z=3)\n"
                     "mod.C().m(4)\n")
    assert _unpassed_parameters([src], [bench]) == []


def test_traced_names_exist():
    # perfbench/spans.py wraps these functions and methods by name in every
    # --trace 1 run; a deleted or renamed one must fail here, not there.
    # install() patches gskit in place, so it runs in its own interpreter.
    code = ("import importlib, spans; spans.install(spans.Tracer()); "
            "assert spans.FUNCTIONS and spans.METHODS; "
            "[getattr(importlib.import_module('gskit.' + m), a).__wrapped__ "
            "for m, a in spans.FUNCTIONS]; "
            "[getattr(getattr(importlib.import_module('gskit.' + m), c), a).__wrapped__ "
            "for m, c, a in spans.METHODS]")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
