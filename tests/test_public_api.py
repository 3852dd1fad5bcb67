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
Every name that perfbench/spans.py traces must exist."""
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


def _module_uses(tree) -> Counter:
    """How often tree uses each (gskit module, top-level name): as an
    attribute of a name bound to the module by `from . import <module>`,
    `from gskit import <module>` or `import gskit.<module>` (used as
    gskit.<module>.<name>), or imported by `from .<module> import <name>`
    or `from gskit.<module> import <name>`."""
    aliases, uses = {}, Counter()
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
                uses[module, alias.name] += 1
            else:
                aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in aliases:
            uses[aliases[base.id], node.attr] += 1
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and base.value.id == "gskit"):
            uses[base.attr, node.attr] += 1
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
