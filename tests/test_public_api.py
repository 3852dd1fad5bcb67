"""Every public top-level function and class of gskit has a caller in the
package or in the benchmark (perfbench/).  A name that only tests call
belongs in the tests; a feature that nothing calls is deleted."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

def _loaded_names(node) -> Counter:
    """How often each name is used under node, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_definition_has_a_caller():
    src = sorted((ROOT / "src" / "gskit").glob("*.py"))
    trees = {p: ast.parse(p.read_text())
             for p in src + sorted((ROOT / "perfbench").glob("*.py"))}
    used = {p: _loaded_names(tree) for p, tree in trees.items()}
    unused = []
    for path in src:
        for node in trees[path].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            # uses inside the definition itself (recursion, methods) do not count
            own = _loaded_names(node)[node.name]
            if not any(counts[node.name] > (own if p == path else 0)
                       for p, counts in used.items()):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public names without a caller in src/gskit or perfbench/: {unused}"
