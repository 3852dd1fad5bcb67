"""Every public top-level function and class of gskit, and every public
method of a public class, has a caller in the package or in the benchmark
(perfbench/).  A name that only tests call belongs in the tests; a feature
that nothing calls is deleted.  Methods are matched by name alone, so a
caller of one method of a name counts for every method of that name.
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


def test_every_public_definition_has_a_caller():
    src = sorted((ROOT / "src" / "gskit").glob("*.py"))
    trees = {p: ast.parse(p.read_text())
             for p in src + sorted((ROOT / "perfbench").glob("*.py"))}
    used = {p: _loaded_names(tree) for p, tree in trees.items()}
    unused = []
    for path in src:
        for qualname, node in _public_definitions(trees[path]):
            # uses inside the definition itself (recursion, methods) do not count
            own = _loaded_names(node)[node.name]
            if not any(counts[node.name] > (own if p == path else 0)
                       for p, counts in used.items()):
                unused.append(f"{path.stem}.{qualname}")
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
