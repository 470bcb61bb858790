"""Every public name in ``src/gsurf`` has a caller a user reaches.

A module-level public ``def`` or ``class``, and a public method or
property of a public class, counts as called when one of these refers to
it: code in ``src/gsurf`` outside its own definition, a non-test file in
``perfbench/``, or README's library tour.  The package's ``__init__`` is
not read: re-exporting a name is not using it.  A reference is a name, an
attribute, an imported name, or a string equal to the name (as
``getattr`` takes).  The tour is run below, so each name it counts is
exercised.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gsurf"

# Public names kept without a caller, each with the reason it stays.
ALLOWED_UNCALLED = {
    "cone.fiber_report":
        "the core-uniqueness rule over the rank dichotomy's fiber"
        " candidates, returned as a FiberReport; the equivariant cone of a"
        " group reports it (ROADMAP item 11)",
    "cone.delta":
        "the gap coordinate of a class on the slice -K + delta*F, the"
        " inverse of slice_point; the exact slice threshold and the"
        " equivariant cone are stated in it (ROADMAP items 2 and 11)",
    "lattice.is_reduced_class":
        "the public reduced-form test of a symplectic class, in"
        " gsurf.__all__; the cone's descent tests its own raw form",
    "cone.FiberReport.consistent":
        "whether a report with a forced fiber class has exactly one"
        " effective candidate; it belongs to the allow-listed fiber_report"
        " (ROADMAP item 11)",
    "hexagon.TorusElement.rotation_numbers":
        "the only public reading of a torus element in rotation numbers,"
        " the terms the hexagon calculus is stated in",
}


def readme_tour() -> str:
    """The Python block of README's library tour."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text,
                          re.MULTILINE | re.DOTALL)
    return block


def _references(nodes) -> Counter:
    out = Counter()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                out[sub.attr] += 1
            elif isinstance(sub, ast.alias):
                out[sub.name.rpartition(".")[2]] += 1
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out[sub.value] += 1
    return out


def _public_definitions(tree):
    """(qualified name, node) of each public module-level def or class and
    of each public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def uncalled_public_names() -> list:
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    everywhere = _references(
        [*modules.values()]
        + [ast.parse(p.read_text(encoding="utf-8"))
           for p in sorted((ROOT / "perfbench").glob("*.py"))
           if not p.name.startswith("test_")]
        + [ast.parse(readme_tour())])
    # a name is referred to outside its definition when it has more
    # references in all than inside the definition
    return sorted(f"{stem}.{name}"
                  for stem, tree in modules.items()
                  for name, node in _public_definitions(tree)
                  if everywhere[node.name] == _references([node])[node.name])


def test_every_public_name_has_a_caller():
    # Equality both ways: a new uncalled name fails, and so does an
    # allow-listed name that has gained a caller and should leave the list.
    assert uncalled_public_names() == sorted(ALLOWED_UNCALLED)


def test_readme_tour_runs_and_states_its_values():
    """Run the tour in a fresh namespace; a line whose comment is a Python
    literal must evaluate to it."""
    tour = readme_tour()
    lines = tour.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(tour).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        try:
            want = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            want = comment = None
        if isinstance(stmt, ast.Expr) and comment is not None:
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                       namespace)
            assert got == want, ast.unparse(stmt)
            checked.append(want)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
    assert checked == [240, (1, 0, -1, -1), (0, True), "rank1", "involution"]
