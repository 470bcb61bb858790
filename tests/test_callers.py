"""Every public name in ``src/gsurf`` has a caller a user reaches.

A module-level public ``def`` or ``class`` counts as called when one of
these refers to it: code in ``src/gsurf`` outside its own definition, a
non-test file in ``perfbench/``, or README's library tour.  The package's
``__init__`` is not read: re-exporting a name is not using it.  A reference
is a name, an attribute, an imported name, or a string equal to the name
(as ``getattr`` takes).  The tour is run below, so each name it counts is
exercised.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gsurf"

# Public names kept without a caller, each with the reason it stays.
ALLOWED_UNCALLED = {
    "exceptional.reduce_symplectic":
        "Cremona descent of a symplectic class; exact cone membership for"
        " every N is built on it (ROADMAP item 10)",
    "cone.fiber_report":
        "the core-uniqueness rule over the rank dichotomy's fiber"
        " candidates, returned as a FiberReport; the equivariant cone of a"
        " group reports it (ROADMAP item 11)",
    "cone.delta":
        "the gap coordinate of a class on the slice -K + delta*F, the"
        " inverse of slice_point; the exact slice threshold and the"
        " equivariant cone are stated in it (ROADMAP items 2 and 11)",
    "lattice.is_reduced_class":
        "reduced form, the stopping test of ROADMAP item 10",
}


def readme_tour() -> str:
    """The Python block of README's library tour."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text,
                          re.MULTILINE | re.DOTALL)
    return block


def _references(nodes) -> set:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name.rpartition(".")[2])
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.add(sub.value)
    return out


def uncalled_public_names() -> list:
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    outside = _references(
        [ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted((ROOT / "perfbench").glob("*.py"))
         if not p.name.startswith("test_")]
        + [ast.parse(readme_tour())])
    refs = {stem: [_references([node]) for node in tree.body]
            for stem, tree in modules.items()}
    found = []
    for stem, tree in modules.items():
        elsewhere = outside.union(
            *(r for s, rs in refs.items() if s != stem for r in rs))
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            own_module = set().union(
                *(r for j, r in enumerate(refs[stem]) if j != i))
            if node.name not in elsewhere | own_module:
                found.append(f"{stem}.{node.name}")
    return sorted(found)


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
    assert checked == [240, (0, True), "rank1", "involution"]
