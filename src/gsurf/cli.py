"""Command-line front end with deterministic JSON reports.

Reports are emitted on standard output as JSON with sorted keys and
compact separators, so a fixed invocation produces byte-identical output;
timing and progress go to standard error only.  Exit codes: 0 success,
1 domain error (bad input, a usage error included) or a reader that
closed standard output early, 2 violated internal invariant (a bug-report
trigger on input that was supposed to be valid).

A handler imports what it runs: each ``_cmd_*``, and each parser or
helper that needs ``lattice`` or ``fractions``, imports its own modules, so
a fresh process loads only the modules its subcommand needs: ``schema``
none beyond ``errors``, ``hexagon`` only ``hexagon``, ``weyl`` only
``lattice`` and ``weyl``.  With no writable ``__pycache__`` every call
compiles what it imports, a large share of a small command's cost.
``schema`` reads ``schema.json`` beside this file with ``open()``, as
``importlib.resources`` would import ``pathlib`` and ``zipfile``.  No
handler but ``selftest`` loads numpy: ``weyl``, ``invariants`` and
``conic`` run on the stabilizer chain, which is plain Python, and numpy is
imported only where an array of elements is built (a group listing, the
batched section identity).  The parser's defaults are literals for the
same reason; tests pin them to the constants they copy.  The value types
and result records are plain classes written out in their modules (see
``lattice``), not generated ones, so no command loads ``inspect``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import InvariantViolation, LatticeError


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(inputs: dict) -> str:
    import hashlib  # only reports need it; `schema` and `--help` do not
    return hashlib.sha256(_dump(inputs).encode()).hexdigest()


def _report(argv, inputs: dict, results: dict, timing=None) -> str:
    inputs = dict(inputs)
    inputs["digest"] = _digest({k: v for k, v in inputs.items() if k != "digest"})
    report = {
        "command": list(argv),
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }
    if timing is not None:
        report["timing"] = {"seconds": round(timing, 3)}
    return _dump(report)


def parse_class_argument(text: str) -> CohClass:
    from .lattice import coh_from_json
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LatticeError(f"bad class literal {text!r}: {exc}") from exc
    return coh_from_json(data)


def parse_group_file(path: str):
    """Load a JSON array of integer matrices as validated isometries."""
    from .lattice import Isometry
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise LatticeError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LatticeError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise LatticeError(f"{path}: expected a nonempty array of matrices")
    gens = []
    for i, mat in enumerate(data):
        try:
            gens.append(Isometry(tuple(tuple(row) for row in mat)))
        except (LatticeError, TypeError) as exc:
            raise LatticeError(f"{path}: matrix #{i} rejected: {exc}") from exc
    return gens


def _resolve_n(n_flag, dim_minus_one: int, what: str) -> int:
    if n_flag is not None and n_flag != dim_minus_one:
        raise LatticeError(
            f"--n {n_flag} conflicts with {what} of size N = {dim_minus_one}")
    return dim_minus_one


def _class_list(classes) -> list:
    from .lattice import coords_to_json
    return [coords_to_json(c) for c in classes]


# -- subcommand handlers -----------------------------------------------------

def _cmd_exc(args, argv):
    from . import exceptional
    exc = exceptional.enumerate_exceptional(args.n, args.max_degree, args.limit)
    if not args.json:
        print(f"count {len(exc)}" + ("" if exc.complete else " (partial)"))
        for c in exc:
            print(str(c))
        return 0
    results = {
        "count": len(exc),
        "complete": exc.complete,
        "max_degree": exc.max_degree,
        "classes": _class_list(exc),
    }
    inputs = {"n": args.n, "max_degree": args.max_degree}
    print(_report(argv, inputs, results, args.elapsed()))
    return 0


def _cmd_reduce(args, argv):
    from . import exceptional
    from .lattice import coords_to_json
    cls = parse_class_argument(args.cls)
    n = _resolve_n(args.n, cls.n, "the class vector")
    trace = exceptional.reduce_exceptional(cls)
    if not args.json:
        for (ijk, before, after) in trace.steps:
            print(f"R{ijk}: {before} -> {after}")
        print(f"final E_{trace.final_index}")
        return 0
    results = {
        "steps": [{"ijk": list(ijk), "before": coords_to_json(b),
                   "after": coords_to_json(a)} for ijk, b, a in trace.steps],
        "final": coords_to_json(trace.final),
        "final_index": trace.final_index,
        "degrees": list(trace.degrees()),
    }
    print(_report(argv, {"n": n, "class": coords_to_json(cls)}, results,
                  args.elapsed()))
    return 0


def _cmd_weyl(args, argv):
    from . import weyl
    n = args.n
    roots = weyl.all_roots(n)
    results = {
        "type": weyl.root_system_type(n),
        "n_roots": len(roots),
    }
    results["order"] = weyl.weyl_group(
        n, limit=None if args.chain else args.limit).order
    results["method"] = "chain" if args.chain else "closure"
    if not args.order_only:
        results["simple_roots"] = _class_list(weyl.simple_roots(n))
        results["roots"] = _class_list(roots)
    print(_report(argv, {"n": n, "chain": bool(args.chain)}, results,
                  args.elapsed()))
    return 0


def _cmd_invariants(args, argv):
    from . import weyl
    gens = parse_group_file(args.gens)
    n = _resolve_n(args.n, gens[0].n, "the generator matrices")
    group = weyl.generate_group(gens, limit=args.limit)
    rank, basis = weyl.invariant_lattice(group)
    trace_sum, holds = weyl.trace_sum_condition(group)
    results = {
        "order": group.order,
        "rank": rank,
        "basis": _class_list(basis),
        "trace_sum": trace_sum,
        "holds": holds,
    }
    inputs = {"n": n, "gens": [list(map(list, g.mat)) for g in gens]}
    print(_report(argv, inputs, results, args.elapsed()))
    return 0


def _cmd_conic(args, argv):
    from . import gconic, weyl
    gens = parse_group_file(args.gens)
    n = _resolve_n(args.n, gens[0].n, "the generator matrices")
    model = gconic.ConicBundleModel(n)
    for g in gens:  # the group preserves the bundle iff every generator does
        gconic.fiber_action(g, model)
    group = weyl.generate_group(gens, limit=args.limit)
    dec = gconic.decompose(group, model, args.g0)
    results = {
        "minimal": dec.minimal,
        "case": dec.case_tag,
        "Q_structure": dec.q_image,
        "Q_abstract": list(dec.q_abstract),
        "Q_order": len(dec.q_elements),
        "P_order": len(dec.p_structure),
        "g0_size": dec.g0_size,
        "sigma_sizes": None if dec.sigma_sizes is None else list(dec.sigma_sizes),
        "parity_ok": dec.parity_ok,
    }
    inputs = {"n": n, "g0": args.g0,
              "gens": [list(map(list, g.mat)) for g in gens]}
    print(_report(argv, inputs, results, args.elapsed()))
    return 0


def _parse_scan(text: str):
    from fractions import Fraction
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError) as exc:
            raise LatticeError(f"bad grid value {part!r}") from exc
    if not out:
        raise LatticeError("empty scan grid")
    return out


def _cmd_cone(args, argv):
    from . import cone
    from .lattice import canonical_class, coords_to_json, fiber_class
    n = args.n
    k0 = canonical_class(n)
    fiber = parse_class_argument(args.fiber) if args.fiber else \
        fiber_class(n)
    _resolve_n(args.n, fiber.n, "the fiber class")
    cone.check_fiber(k0, fiber)
    results = {
        "fiber_pairs": list(cone.fiber_pairs(n)),
        "obstructions": [list(p) for p in
                         cone.blowdown_obstruction(n, args.a_min)],
    }
    inputs = {"n": n, "fiber": coords_to_json(fiber), "a_min": args.a_min,
              "scan": args.scan}
    if args.scan is not None:
        grid = _parse_scan(args.scan)
        sl = cone.slice_scan(n, fiber, k0, grid, limit=args.limit)
        results["slice"] = sl.to_json()
    else:
        results["slice"] = None
    print(_report(argv, inputs, results, args.elapsed()))
    return 0


def _cmd_hexagon(args, argv):
    from . import hexagon
    group = hexagon.make_imprimitive(args.kind, args.n, args.k, args.s,
                                     args.limit)
    relations_ok = None
    if args.verify:
        relations_ok = hexagon.presentation_check(args.n, group.k, group.s)
    results = {
        "order": group.order,
        "relations_ok": relations_ok,
        "generators": [{"perm": list(g.perm), "scalars": list(g.scalars),
                        "modulus": g.modulus} for g in group.generators],
    }
    inputs = {"kind": args.kind, "n": args.n, "k": args.k, "s": args.s,
              "verify": bool(args.verify)}
    print(_report(argv, inputs, results, args.elapsed()))
    return 0


def _cmd_selftest(args, argv):
    from . import selftest
    results = selftest.run_all(quick=args.quick, log=sys.stderr)
    payload = {
        "criteria": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                     for r in results],
        "all_ok": all(r.ok for r in results),
    }
    print(_report(argv, {"quick": bool(args.quick)}, payload, args.elapsed()))
    return 0 if payload["all_ok"] else 2


def _cmd_schema(args, argv):
    path = os.path.join(os.path.dirname(__file__), "schema.json")
    with open(path, encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return 0


# -- parser -------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any bad input; argparse's 2 would
    read as a violated internal invariant.  Subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsurf",
        description="Exact lattice arithmetic for finite group actions on"
                    " blown-up planes.")
    parser.add_argument("--timing", action="store_true",
                        help="include wall time in the JSON report (breaks"
                             " byte-for-byte reproducibility)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exc", help="enumerate exceptional classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--limit", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_exc)

    p = sub.add_parser("reduce", help="Cremona-reduce an exceptional class")
    p.add_argument("--class", dest="cls", required=True,
                   help='raw coordinates, e.g. "[1,-1,-1,0]"')
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("weyl", help="root system and Weyl group data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order-only", action="store_true")
    p.add_argument("--chain", action="store_true",
                   help="order with no --limit (required for N = 8)")
    p.add_argument("--limit", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("invariants", help="invariant lattice of a subgroup")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--gens", required=True, help="JSON file of matrices")
    p.add_argument("--limit", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("conic", help="conic-bundle decomposition classifier")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--gens", required=True, help="JSON file of matrices")
    p.add_argument("--g0", type=int, default=1,
                   help="declared order of the lattice-trivial core")
    p.add_argument("--limit", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_conic)

    p = sub.add_parser("cone", help="fiber pairs, obstructions, cone slice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fiber", default=None,
                   help='fiber class, raw coordinates (default H - E1)')
    p.add_argument("--scan", default=None,
                   help='comma-separated gap values, e.g. "0,1/2,1,2"')
    p.add_argument("--a-min", type=int, default=-10_000)
    p.add_argument("--limit", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("hexagon", help="imprimitive monomial groups")
    p.add_argument("--kind", required=True,
                   choices=["Gn", "Gtn", "Gnks", "Gtn32"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--limit", type=int, default=100_000)
    p.set_defaults(func=_cmd_hexagon)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true",
                   help="reduced sweeps for a fast smoke run")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("schema", help="print the machine-readable CLI schema")
    p.set_defaults(func=_cmd_schema)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    args.elapsed = (lambda: time.monotonic() - t0) if args.timing \
        else (lambda: None)
    try:
        code = args.func(args, argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`gsurf exc ... | head -1`).  Point
        # stdout at devnull so that the flush at interpreter exit cannot
        # raise again, and end without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation (bug report trigger): {exc}", file=sys.stderr)
        return 2
    print(f"done in {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
