"""Every public name in ``src/gsurf`` has a caller a user reaches.

A public name is a module-level ``def`` or ``class``, or a public method
or property of a public class.  Its callers are read in code in
``src/gsurf`` outside the name's own definition, in the non-test files
of ``perfbench/``, and in README's library tour.  The package's
``__init__`` is not read: re-exporting a name is not using it.  The tour
is run below, so each name it counts is exercised.

A module-level name counts as called when any name, attribute, imported
name or string (as ``getattr`` takes) is spelled the same.  A method or
property ``m`` of class ``C`` counts as called when a reference is
spelled ``C.m``, or, when no other class in ``src/gsurf`` has a member
named ``m``, when an attribute ``x.m`` or a string ``"m"`` refers to it.
A member is a method, a property, a ``_fields`` or ``__slots__`` entry, a
NamedTuple field, or an attribute assigned on ``self`` or through
``object.__setattr__``.  A member whose name another class shares, and
that no ``C.m`` reference credits, cannot be told apart from the other
class's by name alone: ``SHARED_MEMBER_CALLERS`` names, for each, one
function whose body refers to ``.m`` on an instance of ``C``, and is
checked against the computed set both ways.
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

# Each public member whose name another class in src/gsurf shares and
# that no ``Class.member`` reference credits, with one function whose
# body refers to ``.member`` on an instance of that class: a src
# function as ``module.qualname``, a perfbench one as
# ``perfbench.module.qualname``.
SHARED_MEMBER_CALLERS = {
    "gconic.ConicBundleModel.fiber": "gconic.vertical_decompositions",
    "hexagon.MonomialGroup.order": "cli._cmd_hexagon",
    "hexagon.MonomialGroupElement.inverse": "hexagon.presentation_check",
    "hexagon.TorusElement.inverse": "hexagon.g3_conjugation_check",
    "hexagon.TorusElement.order": "hexagon.TorusElement.rotation_numbers",
    "lattice.CohClass.degree": "exceptional.ReductionTrace.degrees",
    "lattice.CohClass.n": "cli._cmd_reduce",
    "lattice.CohClass.raw": "lattice.Isometry.fixes",
    "lattice.Isometry.n": "weyl.minimality_rank_dichotomy",
    "lattice.SymplecticClass.n": "cone.is_in_cone",
    "lattice.SymplecticClass.raw": "lattice.pairing",
    "weyl.FiniteIsometryGroup.n": "weyl.trace_sum_condition",
    "weyl.StabilizerChain.order": "weyl.generate_group",
}


def readme_tour() -> str:
    """The Python block of README's library tour."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text,
                          re.MULTILINE | re.DOTALL)
    return block


def _references(nodes) -> Counter:
    """The references under ``nodes``, each counted under the keys it
    matches: ("any", x) for a name, attribute, imported name or string x;
    ("dot", m) for an attribute .m; ("str", s) for a string s; and
    ("qual", C, m) for an attribute spelled C.m."""
    out = Counter()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out["any", sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                out["any", sub.attr] += 1
                out["dot", sub.attr] += 1
                if isinstance(sub.value, ast.Name):
                    out["qual", sub.value.id, sub.attr] += 1
            elif isinstance(sub, ast.alias):
                out["any", sub.name.rpartition(".")[2]] += 1
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out["any", sub.value] += 1
                out["str", sub.value] += 1
    return out


def _members(cls: ast.ClassDef) -> set:
    """The member names of a class: its methods and properties, its
    ``_fields``/``__slots__`` entries and NamedTuple fields, and the
    attributes its code assigns on ``self`` or through
    ``object.__setattr__``."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("_fields", "__slots__")
                for t in node.targets):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            names.add(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) > 1 \
                and ast.unparse(node.func) == "object.__setattr__" \
                and isinstance(node.args[1], ast.Constant):
            names.add(node.args[1].value)
    return names


def _public_definitions(tree):
    """(qualified name, node, class name or None) of each public
    module-level def or class and of each public method or property of a
    public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node, None
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, node.name


def _functions(tree, prefix: str):
    """(qualified name, node) of every function in a module, nested ones
    and methods included."""
    def walk(body, path):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = f"{path}.{node.name}"
                if isinstance(node, ast.FunctionDef):
                    yield name, node
                yield from walk(node.body, name)
    yield from walk(tree.body, prefix)


def _sources():
    """The src modules by stem, and every function a caller can be, by
    the names ``SHARED_MEMBER_CALLERS`` uses."""
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    bench = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")}
    functions = {}
    for prefix, trees in (("", modules), ("perfbench.", bench)):
        for stem, tree in trees.items():
            functions.update(_functions(tree, prefix + stem))
    readers = [*modules.values(), *bench.values(), ast.parse(readme_tour())]
    return modules, functions, readers


def caller_check():
    """(uncalled public names, shared members no ``C.m`` reference
    credits), each sorted; a shared member counts as called when
    ``SHARED_MEMBER_CALLERS`` lists it."""
    modules, _, readers = _sources()
    everywhere = _references(readers)
    owners = Counter(m for tree in modules.values() for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef) for m in _members(cls))
    uncalled, shared = [], []
    for stem, tree in modules.items():
        for qual, node, owner in _public_definitions(tree):
            own = _references([node])

            # referred to outside its definition: more references in all
            # than inside the definition
            def referred(*key):
                return everywhere[key] > own[key]

            name = f"{stem}.{qual}"
            if owner is None:
                called = referred("any", node.name)
            elif referred("qual", owner, node.name):
                called = True
            elif owners[node.name] == 1:
                called = referred("dot", node.name) or referred("str", node.name)
            else:
                called = name in SHARED_MEMBER_CALLERS
                shared.append(name)
            if not called:
                uncalled.append(name)
    return sorted(uncalled), sorted(set(shared) - set(ALLOWED_UNCALLED))


def test_every_public_name_has_a_caller():
    # Equality both ways: a new uncalled name fails, and so does an
    # allow-listed name that has gained a caller and should leave the list.
    assert caller_check()[0] == sorted(ALLOWED_UNCALLED)


def test_shared_member_callers_are_the_shared_members_and_refer_to_them():
    # Equality both ways, as for the allow-list: a shared member that gains
    # a Class.member reference, or loses its name's other owner, leaves.
    assert sorted(SHARED_MEMBER_CALLERS) == caller_check()[1]
    _, functions, _ = _sources()
    for member, caller in SHARED_MEMBER_CALLERS.items():
        qual = member.partition(".")[2]
        assert caller in functions, (member, caller)
        assert caller != member and not caller.startswith(member + "."), \
            (member, caller)
        attr = qual.rpartition(".")[2]
        assert _references([functions[caller]])["dot", attr], (member, caller)


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
