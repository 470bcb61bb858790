import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gsurf

from gsurf import cli
from gsurf.gconic import full_swap
from gsurf.lattice import coh_from_json
from gsurf.selftest import klein_four_group, parity_consistent_partitions
from gsurf.weyl import reflection, simple_reflections
from oracles import h_ijk
from test_gconic import _weyl_d_generators
from test_weyl import _affine_reflections, _conjugated, _transpositions


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run(capsys, *args)
    return code, json.loads(out)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_examples():
    """argv of each ``gsurf`` line in README's CLI block that needs no
    ``gens.json``."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines
            if argv and argv[0] == "gsurf" and "gens.json" not in argv]


def test_readme_cli_examples_exit_0(capsys):
    examples = readme_cli_examples()
    assert len(examples) >= 7
    for argv in examples:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


def test_exc_plain(capsys):
    code, out = run(capsys, "exc", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count 27"
    assert len(lines) == 28


def test_exc_json_and_determinism(capsys):
    code, report = run_json(capsys, "exc", "--n", "6", "--json")
    assert code == 0
    assert report["results"]["count"] == 27
    assert report["results"]["complete"] is True
    assert report["inputs"]["n"] == 6
    assert "digest" in report["inputs"]
    code2, out2 = run(capsys, "exc", "--n", "6", "--json")
    _, out1 = run(capsys, "exc", "--n", "6", "--json")
    assert out1 == out2  # byte-identical reports


def test_exc_partial(capsys):
    code, report = run_json(capsys, "exc", "--n", "9", "--max-degree", "2",
                            "--json")
    assert code == 0
    assert report["results"]["complete"] is False


def test_reduce_plain(capsys):
    code, out = run(capsys, "reduce", "--class", "[1,-1,-1,0]")
    assert code == 0
    assert "final E_3" in out


def test_reduce_json_round_trip(capsys):
    code, report = run_json(capsys, "reduce", "--class", "[1,-1,-1,0]",
                            "--n", "3", "--json")
    assert code == 0
    assert report["results"]["final_index"] == 3
    assert coh_from_json(report["inputs"]["class"]).coords == (1, -1, -1, 0)


def test_reduce_conflicting_n(capsys):
    code = cli.main(["reduce", "--class", "[1,-1,-1,0]", "--n", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "conflicts" in err


def test_reduce_names_a_witness_when_the_class_does_not_descend(capsys):
    # 3H - E1 - ... - E9 + E10 has e.e = K.e = -1, but E10 pairs to -1 with it
    code = cli.main(["reduce", "--class", "[3,-1,-1,-1,-1,-1,-1,-1,-1,-1,1]"])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: [3,-1,-1,-1,-1,-1,-1,-1,-1,-1,1] is not exceptional: it"
        " pairs to -1 with the exceptional class [0,0,0,0,0,0,0,0,0,0,1]\n")


@pytest.mark.parametrize("n", ["6", "9"])
def test_exc_refuses_a_negative_degree_cap(capsys, n):
    assert cli.main(["exc", "--n", n, "--max-degree", "-5"]) == 1
    assert capsys.readouterr() == (
        "", "error: max_degree must be at least 0, got -5\n")


def test_weyl(capsys):
    code, report = run_json(capsys, "weyl", "--n", "3")
    assert code == 0
    res = report["results"]
    assert res["order"] == 12
    assert res["n_roots"] == 8
    assert res["type"] == "A2+A1"
    assert len(res["roots"]) == 8


def test_weyl_chain_order_only(capsys):
    code, report = run_json(capsys, "weyl", "--n", "5", "--chain",
                            "--order-only")
    assert code == 0
    assert report["results"]["order"] == 1920
    assert report["results"]["method"] == "chain"
    assert "roots" not in report["results"]


def test_invariants_subcommand(tmp_path, capsys):
    gens = [list(map(list, reflection(h_ijk(4, 1, 2, 3)).mat))]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code, report = run_json(capsys, "invariants", "--gens", str(path))
    assert code == 0
    res = report["results"]
    assert res["order"] == 2
    assert res["rank"] == 4  # a reflection fixes a hyperplane
    assert res["trace_sum"] == 2 * (res["rank"] - 1)
    assert res["holds"] is False
    assert report["inputs"]["gens"] == gens


def test_group_file_rejects_non_isometry(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]))
    code = cli.main(["invariants", "--gens", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "matrix #0" in err and "preserve" in err


def test_group_file_n_conflict(tmp_path, capsys):
    gens = [list(map(list, reflection(h_ijk(4, 1, 2, 3)).mat))]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code = cli.main(["invariants", "--gens", str(path), "--n", "7"])
    assert code == 1


def test_conic_subcommand(tmp_path, capsys):
    gens = [list(map(list, full_swap(5).mat))]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code, report = run_json(capsys, "conic", "--gens", str(path))
    assert code == 0
    res = report["results"]
    assert res["minimal"] is True
    assert res["case"] == "involution"
    assert res["Q_structure"] == "Z2"
    assert res["sigma_sizes"] == [0]
    assert res["parity_ok"] is True


def test_conic_stops_at_the_first_element_moving_f(tmp_path, capsys):
    # W(E6) has 51,840 elements; one that moves F ends the run at once
    gens = [list(map(list, s.mat)) for s in simple_reflections(6)]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    t0 = time.monotonic()
    code = cli.main(["conic", "--gens", str(path)])
    assert time.monotonic() - t0 < 2
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: isometry does not fix the fiber class")


def test_conic_checks_the_generators_before_listing_the_group(tmp_path, capsys):
    # W(E7) has 2,903,040 elements; its first generator already moves F
    gens = [list(map(list, s.mat)) for s in simple_reflections(7)]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    t0 = time.monotonic()
    code = cli.main(["conic", "--gens", str(path)])
    assert time.monotonic() - t0 < 2
    assert code == 1
    assert capsys.readouterr().err == \
        "error: isometry does not fix the fiber class\n"


def test_conic_g0_contradicting_the_group_exits_1(tmp_path, capsys):
    gens = [list(map(list, g.mat))
            for g in klein_four_group(5, ((2, 3), (4, 5), ()))[1:]]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code = cli.main(["conic", "--gens", str(path), "--g0", "3"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: nontrivial core with a base-trivial image outside"
        " {id, full swap}\n")


def test_cone_subcommand(capsys):
    code, report = run_json(capsys, "cone", "--n", "5", "--scan", "0,1/2,1,2")
    assert code == 0
    res = report["results"]
    assert res["fiber_pairs"] == [1]
    assert res["obstructions"] == []
    assert res["slice"]["samples"] == [[0, True], ["1/2", True],
                                       [1, True], [2, True]]


def test_cone_six_blowups(capsys):
    code, report = run_json(capsys, "cone", "--n", "6")
    assert code == 0
    assert report["results"]["obstructions"] == [[-1, 1]]


def test_cone_far_a_min(capsys):
    code, report = run_json(capsys, "cone", "--n", "5", "--a-min", "-100000000")
    assert code == 0
    assert report["results"]["obstructions"] == []


@pytest.mark.parametrize("fiber", ["[0,0,0,0,0,0]", "[0,1,0,0,0,0]",
                                   "[1,0,0,0,0,0]"])
@pytest.mark.parametrize("scan", [[], ["--scan", "0,1"]])
def test_cone_fiber_checked_at_the_boundary(capsys, fiber, scan):
    # F = 0, F = E1 and F = H each break F.F = 0 or K.F = -2.
    assert cli.main(["cone", "--n", "5", "--fiber", fiber, *scan]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: fiber class must satisfy F.F = 0, K.F = -2\n"


def test_cone_other_fiber_accepted(capsys):
    code, report = run_json(capsys, "cone", "--n", "5", "--fiber",
                            "[1,0,-1,0,0,0]", "--scan", "0,1")
    assert code == 0
    assert report["inputs"]["fiber"] == [1, 0, -1, 0, 0, 0]


def test_hexagon_subcommand(capsys):
    code, report = run_json(capsys, "hexagon", "--kind", "Gnks", "--n", "9",
                            "--k", "3", "--s", "2", "--verify")
    assert code == 0
    assert report["results"]["order"] == 81
    assert report["results"]["relations_ok"] is True


def test_hexagon_bad_parameters(capsys):
    code = cli.main(["hexagon", "--kind", "Gnks", "--n", "4", "--k", "3",
                     "--s", "2"])
    assert code == 1


def test_hexagon_k_and_s_refused_for_a_fixed_kind(capsys):
    code = cli.main(["hexagon", "--kind", "Gtn32", "--n", "6", "--k", "5",
                     "--s", "7", "--verify"])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: k and s are Gnks parameters; kind Gtn32 fixes them\n")


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--class", "[1,"], "error: bad class literal '[1,': "),
    (["cone", "--n", "5", "--scan", "0,x"], "error: bad grid value 'x'\n"),
    (["cone", "--n", "5", "--scan", ","], "error: empty scan grid\n"),
    (["cone", "--n", "5", "--scan", ""], "error: empty scan grid\n"),
    (["cone", "--n", "5", "--fiber", ""], "error: bad class literal '': "),
])
def test_bad_argument_exits_1(capsys, argv, message):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    ("{", "is not valid JSON"),
    ("[]", "expected a nonempty array of matrices"),
])
def test_bad_generator_file_exits_1(tmp_path, capsys, content, message):
    path = tmp_path / "gens.json"
    if content is not None:
        path.write_text(content)
    assert cli.main(["invariants", "--gens", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


# Generator files for `invariants` and `conic`; None is a missing file.
HOSTILE_FILES = {
    "bad-json": "{",
    "empty": "",
    "object": "{}",
    "number": "5",
    "empty-array": "[]",
    "empty-matrix": "[[]]",
    "flat": "[1]",
    "non-square": json.dumps([[[1, 0, 0], [0, 1, 0]]]),
    "ragged": json.dumps([[[1, 0], [0, 1, 0]]]),
    "float": json.dumps([[[1.0, 0, 0], [0, 1, 0], [0, 0, 1]]]),
    "bool": json.dumps([[[True, False, False], [False, True, False],
                         [False, False, True]]]),
    "string": json.dumps([[["1", 0], [0, 1]]]),
    "huge-entry": json.dumps([[[10 ** 30, 0, 0], [0, 1, 0], [0, 0, 1]]]),
    "minus-identity": json.dumps([[[-int(i == j) for j in range(5)]
                                   for i in range(5)]]),
    "missing": None,
}

# "@name" stands for the generator file HOSTILE_FILES[name], "@klein" for
# a Klein four group on five blowups.
HOSTILE_ARGV = [
    *([command, "--gens", f"@{name}"] for name in HOSTILE_FILES
      for command in ("invariants", "conic")),
    ["exc", "--n", "-1"], ["exc", "--n", "0"], ["exc", "--n", "40"],
    ["exc", "--n", "6", "--limit", "0"], ["exc", "--n", "6", "--limit", "-1"],
    ["exc", "--n", "12", "--max-degree", "1000"],
    ["exc", "--n", "6", "--max-degree", "-5"],
    ["exc", "--n", "9", "--max-degree", "-5"],
    ["reduce", "--class", "[]"], ["reduce", "--class", "[1.5,1]"],
    ["reduce", "--class", "[true,false,false]"],
    ["reduce", "--class", "[3,-1,-1,-1,-1,-1,-1,-1,-1,-1,1]"],
    ["reduce", "--class", "[-3,1,1,1,1,1,1,1,1,1,1]"],
    ["reduce", "--class", "[-7,2,2,2,2,2,2,2,2,2,2,2,2,-1,-1]"],
    ["weyl", "--n", "-1"], ["weyl", "--n", "2"], ["weyl", "--n", "9"],
    ["weyl", "--n", "20"], ["weyl", "--n", "6", "--limit", "0"],
    ["weyl", "--n", "6", "--limit", "-1"], ["weyl", "--n", "1e3"],
    ["invariants", "--gens", "@klein", "--limit", "0"],
    ["invariants", "--gens", "@klein", "--n", "3"],
    ["conic", "--gens", "@klein", "--g0", "0"],
    ["conic", "--gens", "@klein", "--g0", "-1"],
    ["conic", "--gens", "@klein", "--g0", "2"],
    ["conic", "--gens", "@klein", "--limit", "-1"],
    ["conic", "--gens", "@klein", "--n", "-1"],
    ["cone", "--n", "-1"], ["cone", "--n", "5", "--a-min", "5"],
    ["cone", "--n", "5", "--scan", ""], ["cone", "--n", "5", "--scan", ","],
    ["cone", "--n", "5", "--scan", "1/0"], ["cone", "--n", "5", "--scan", "1,1"],
    ["cone", "--n", "5", "--fiber", ""],
    ["hexagon", "--kind", "Gn", "--n", "0"],
    ["hexagon", "--kind", "Gn", "--n", "-3"],
    ["hexagon", "--kind", "Gnks", "--n", "9", "--k", "0", "--s", "2"],
    ["hexagon", "--kind", "Gnks", "--n", "9", "--k", "-1", "--s", "2"],
    ["hexagon", "--kind", "Gnks", "--n", "9", "--k", "3", "--s", "100"],
    ["hexagon", "--kind", "Gn", "--n", "5", "--limit", "0"],
    ["hexagon", "--kind", "Gn", "--n", "100000"],
    ["frobnicate"], [], ["exc", "--n"], ["schema", "--x"],
]


@pytest.mark.parametrize("argv", HOSTILE_ARGV, ids=" ".join)
def test_hostile_input_is_refused_without_a_traceback(tmp_path, capsys, argv):
    # Infinite groups at N >= 21 are left out: the finite-order test does
    # not reach them yet, and they run without end.
    def path(name):
        if name == "klein":
            gens = klein_four_group(5, next(parity_consistent_partitions(5)))
            content = json.dumps([[list(r) for r in g.mat] for g in gens[1:]])
        else:
            content = HOSTILE_FILES[name]
        file = tmp_path / f"{name}.json"
        if content is not None:
            file.write_text(content)
        return str(file)

    argv = [path(a[1:]) if a.startswith("@") else a for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as stop:  # argparse's usage errors
        code = stop.code
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    # an error line, which may carry the offending matrix below it
    assert re.search(r"^(gsurf[ a-z]*: )?error: ", err, re.MULTILINE), err
    assert "Traceback" not in err


MAIN_USAGE = (
    "usage: gsurf [-h] [--timing]\n"
    "             {exc,reduce,weyl,invariants,conic,cone,hexagon,selftest,schema}\n"
    "             ...\n")
EXC_USAGE = ("usage: gsurf exc [-h] --n N [--max-degree MAX_DEGREE] [--json]"
             " [--limit LIMIT]\n")


@pytest.mark.parametrize("argv, err", [
    ([], MAIN_USAGE +
     "gsurf: error: the following arguments are required: command\n"),
    (["exc"], EXC_USAGE +
     "gsurf exc: error: the following arguments are required: --n\n"),
    (["exc", "--n", "x"], EXC_USAGE +
     "gsurf exc: error: argument --n: invalid int value: 'x'\n"),
    (["frobnicate"], MAIN_USAGE +
     "gsurf: error: argument command: invalid choice: 'frobnicate' (choose"
     " from 'exc', 'reduce', 'weyl', 'invariants', 'conic', 'cone',"
     " 'hexagon', 'selftest', 'schema')\n"),
    (["hexagon", "--kind", "Bad", "--n", "3"],
     "usage: gsurf hexagon [-h] --kind {Gn,Gtn,Gnks,Gtn32} --n N [--k K]"
     " [--s S]\n                     [--verify] [--limit LIMIT]\n"
     "gsurf hexagon: error: argument --kind: invalid choice: 'Bad' (choose"
     " from 'Gn', 'Gtn', 'Gnks', 'Gtn32')\n"),
], ids=["no-command", "missing-flag", "bad-int", "unknown-command",
        "unknown-kind"])
def test_usage_error_exits_1(monkeypatch, capsys, argv, err):
    # A usage error is bad input, so it exits 1 like any other; 2 is kept
    # for a violated internal invariant.  argparse wraps the usage line to
    # the terminal width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", [["--help"], ["exc", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gsurf")


# The monomial-group kinds the README example (Gnks) leaves unpinned.
HEXAGON_KINDS = ["hexagon --kind Gn --n 16 --verify",
                 "hexagon --kind Gtn --n 11 --verify",
                 "hexagon --kind Gtn32 --n 15 --verify"]

# SHA-256 of the stdout of each README example, of `invariants` and
# `conic` on the full swap and on a Klein four-group at N = 5, and of
# `hexagon` on the other three kinds.
GOLDEN_REPORTS = {
    "exc --n 6":
        "aaafa015ff691c7d773b437fd9e69131ad52164ed68aa1fbf175cd8385ad81bb",
    "exc --n 9 --max-degree 4 --json":
        "555cde8650f50276ead2ff6e359d3fb03ceed17331ad50ecd55f5da0191ccd91",
    "reduce --class '[6,-3,-2,-2,-2,-2,-2,-2,-2]'":
        "570f79034fd8c8aac14cdabb76814c0c29d7b45d105034b5b67438d7d1fdccb7",
    "weyl --n 6 --order-only":
        "566b7c6f73f883d5da0fc55572d06c33301832c3f527fe22a055943b952adfd7",
    "weyl --n 8 --chain --order-only":
        "9a4b381232157b38630d0701c5e5562df47cffac5607cd92474b251f687b6f07",
    "cone --n 5 --scan 0,1/2,1,2":
        "ec4e51677d3e99181d6a7c2adf2ff2c02ae59ce53a4be2d1b02366f92a43fb50",
    "cone --n 8 --scan=-1/2,-1/4,0,1":
        "a40e471e82a4d1425a97a0209fbc18e53e5b2a9ba01f9c4954b10c4ee6b54754",
    "hexagon --kind Gnks --n 9 --k 3 --s 2 --verify":
        "67299d817fe17d07de3a8bf17999e1df17e9a5bd8ff6edf057a057ce5638423a",
    "invariants --gens swap5.json":
        "a0cebee89f1a548d1aeafb74f4541090a42bb701ba2f18b7192959b9d7f49118",
    "conic --gens swap5.json":
        "b47d8bc2a81e1dde343d1625dabadf055251d9316c44e0eb3203377e39c2dd44",
    "invariants --gens klein5.json":
        "42fab0c782f6038107489710d71813e9bce7072850ebe1d8f3773d69fa4e0790",
    "conic --gens klein5.json":
        "b9dd6313c5e946c3d668c885eaafabc72ca949752be14cd479502315225874ce",
    "hexagon --kind Gn --n 16 --verify":
        "28b99ef12db2de73ce86f7209c4c8f1506a930039c8232df1d49370811145985",
    "hexagon --kind Gtn --n 11 --verify":
        "d89006e187ad8c2539bbfca13b9cf9425493347365c239b9f5371b450d452966",
    "hexagon --kind Gtn32 --n 15 --verify":
        "099887882cc434c46b46291aa6db26e14fff18b94a2d03b232b35d2c955f07c8",
}


def test_reports_are_byte_identical(tmp_path, monkeypatch, capsys):
    # The report names the generator file as given, so it is a relative
    # path in a fixed working directory.
    monkeypatch.chdir(tmp_path)
    klein = klein_four_group(5, next(parity_consistent_partitions(5)))[1:]
    for name, gens in (("swap5", [full_swap(5)]), ("klein5", klein)):
        (tmp_path / f"{name}.json").write_text(
            json.dumps([list(map(list, g.mat)) for g in gens]))
    examples = readme_cli_examples() + [
        [cmd, "--gens", f"{name}.json"] for name in ("swap5", "klein5")
        for cmd in ("invariants", "conic")] + [
        shlex.split(argv) for argv in HEXAGON_KINDS]
    digests = {}
    for argv in examples:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        digests[shlex.join(argv)] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == GOLDEN_REPORTS


def test_schema_is_json(capsys):
    code, out = run(capsys, "schema")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["subcommands"]) == {
        "exc", "reduce", "weyl", "invariants", "conic", "cone", "hexagon",
        "selftest", "schema"}
    # the documented flags are exactly the parser's, globally and per subcommand
    parser = cli.build_parser()

    def flags(p):
        return {s for a in p._actions if not isinstance(a, argparse._HelpAction)
                for s in a.option_strings}

    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(doc["global_flags"]) == flags(parser)
    assert set(doc["subcommands"]) == set(sub.choices)
    for name, p in sub.choices.items():
        assert set(doc["subcommands"][name]["flags"]) == flags(p), name


def test_timing_flag_adds_field(capsys):
    _, plain = run_json(capsys, "exc", "--n", "3", "--json")
    assert "timing" not in plain
    _, timed = run_json(capsys, "--timing", "exc", "--n", "3", "--json")
    assert "timing" in timed


@pytest.mark.parametrize("argv", [["exc", "--n", "20", "--max-degree", "12"],
                                  ["hexagon", "--kind", "Gn", "--n", "3000"]])
def test_work_limits_stop_huge_inputs(capsys, argv):
    t0 = time.monotonic()
    code = cli.main(argv)
    assert time.monotonic() - t0 < 2
    assert code == 1
    assert "--limit" in capsys.readouterr().err


def test_limit_flags_stay_out_of_inputs(capsys):
    _, plain = run_json(capsys, "exc", "--n", "6", "--json")
    _, capped = run_json(capsys, "exc", "--n", "6", "--json", "--limit", "27")
    assert capped["inputs"] == plain["inputs"]
    assert cli.main(["exc", "--n", "6", "--limit", "26"]) == 1
    argv = ["hexagon", "--kind", "Gn", "--n", "10"]
    _, plain = run_json(capsys, *argv)
    _, capped = run_json(capsys, *argv, "--limit", "300")
    assert capped["inputs"] == plain["inputs"]
    assert cli.main(argv + ["--limit", "299"]) == 1


def _child_env():
    """The environment of a fresh interpreter that imports this gsurf."""
    src = os.path.dirname(os.path.dirname(gsurf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _child_stdout(script):
    """Stdout of ``script`` run in a fresh interpreter on this gsurf."""
    return subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env=_child_env()).stdout


def test_closed_pipe_ends_without_traceback():
    # `gsurf exc --n 10 --max-degree 4 | head -1`: the listing (about
    # 130 kB) is larger than a pipe holds, so the child is still writing
    # when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "gsurf", "exc", "--n", "10", "--max-degree",
         "4"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.readline() == b"count 3767 (partial)\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


# The gsurf modules each subcommand loads beyond gsurf, cli and errors:
# `schema` none and `hexagon` only its own module, as neither handles a
# class; `weyl` lists its roots in closed form, without the exceptional
# enumerator.  `weyl`, `invariants` and `conic` list no group, so none of
# them loads `listing`, which builds the numpy element arrays.
COLD_START_MODULES = {
    "schema": [],
    "exc": ["exceptional", "lattice"],
    "reduce": ["exceptional", "lattice"],
    "hexagon": ["hexagon"],
    "cone": ["cone", "exceptional", "lattice"],
    "invariants": ["lattice", "weyl"],
    "conic": ["gconic", "lattice", "weyl"],
    "weyl": ["lattice", "weyl"],
}


@pytest.mark.parametrize("argv", [
    ["exc", "--n", "6"],
    ["reduce", "--class", "[6,-3,-2,-2,-2,-2,-2,-2,-2]"],
    ["cone", "--n", "5", "--scan", "0,1/2,1,2"],
    ["hexagon", "--kind", "Gnks", "--n", "9", "--k", "3", "--s", "2",
     "--verify"],
    ["schema"],
    ["invariants", "--gens", "GENS"],
    ["conic", "--gens", "GENS"],
    ["weyl", "--n", "4"],
], ids=lambda v: v[0])
def test_cold_start_loads_no_numpy(tmp_path, argv):
    # numpy is about 40% of a small command's start-up; only a group
    # listing or the batched section identity needs it, and no subcommand
    # builds either.  Each handler imports only the gsurf modules it runs,
    # so a stray top-level import fails here.
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([list(map(list, full_swap(5).mat))]))
    argv = [str(gens) if a == "GENS" else a for a in argv]
    script = ("import contextlib, io, sys\n"
              "from gsurf import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = cli.main({argv!r})\n"
              "print(code, 'numpy' in sys.modules, 'hashlib' in sys.modules,"
              " 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
              "print(*sorted(m for m in sys.modules"
              " if m.startswith('gsurf')))\n")
    status, modules = _child_stdout(script).splitlines()
    # a JSON report's digest takes the builtin sha256, not hashlib with
    # its OpenSSL binding; and no record is a generated class, so neither
    # dataclasses nor the inspect module it imports is loaded
    assert status.split() == ["0", "False", "False", "False", "False"]
    expected = ["gsurf", "gsurf.cli", "gsurf.errors"] + \
        ["gsurf." + m for m in COLD_START_MODULES[argv[0]]]
    assert modules.split() == sorted(expected)
    assert "gsurf.listing" not in modules.split()


@pytest.mark.parametrize("module", ["cli", "cone", "errors", "exceptional",
                                    "gconic", "hexagon", "lattice",
                                    "selftest", "weyl"])
def test_each_module_imports_alone(module):
    # The test session has imported everything already, so an import
    # cycle shows only in a fresh interpreter that starts at one module.
    # numpy is imported inside the functions that build arrays (group
    # listings, the batched section identity), so no import loads it; the
    # records are plain classes, so none loads dataclasses either.
    script = (f"import sys, gsurf.{module}\n"
              "print('numpy' in sys.modules, 'dataclasses' in sys.modules)\n")
    assert _child_stdout(script) == "False False\n"


def test_listing_imports_alone():
    # The element listing is the one module that imports numpy at the top;
    # only the group methods that build arrays import it.
    script = ("import sys, gsurf.listing\n"
              "print('numpy' in sys.modules, 'dataclasses' in sys.modules)\n")
    assert _child_stdout(script) == "True False\n"


def test_parser_literals_match_the_library():
    # build_parser holds these as literals so that parsing imports nothing
    from gsurf import exceptional, hexagon
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices

    def action(command, dest):
        return next(a for a in sub[command]._actions if a.dest == dest)

    assert action("exc", "limit").default == exceptional.DEFAULT_LIMIT
    assert action("cone", "limit").default == exceptional.DEFAULT_LIMIT
    assert action("hexagon", "limit").default == hexagon.DEFAULT_LIMIT
    assert action("hexagon", "kind").choices == [
        hexagon.KIND_GN, hexagon.KIND_GTN, hexagon.KIND_GNKS,
        hexagon.KIND_GTN32]


def _fresh_cli(argv):
    """Exit code, stderr and peak RSS in kB of ``cli.main(argv)`` in a
    fresh interpreter.  The child reads VmHWM, not ru_maxrss: Linux keeps
    the peak of the process image an exec replaces, here the whole test
    session's."""
    script = ("import contextlib, io, json\n"
              "from gsurf import cli\n"
              "err = io.StringIO()\n"
              "with contextlib.redirect_stdout(io.StringIO()), \\\n"
              "        contextlib.redirect_stderr(err):\n"
              f"    code = cli.main({argv!r})\n"
              "with open('/proc/self/status') as fh:\n"
              "    peak = next(l for l in fh if l.startswith('VmHWM:'))\n"
              "print(json.dumps([code, err.getvalue(), int(peak.split()[1])]))\n")
    return tuple(json.loads(_child_stdout(script)))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
def test_weyl_order_only_lists_no_element(tmp_path):
    # Listing W(E7) peaks near 400 MB; its chain needs a few tens of MB.
    # `invariants` sums the traces from the chain as well.
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([list(map(list, g.mat))
                                for g in simple_reflections(7)]))
    for argv in (["weyl", "--n", "7", "--order-only"],
                 ["invariants", "--gens", str(gens)]):
        code, _, peak_kb = _fresh_cli(argv)
        assert code == 0, argv
        assert peak_kb < 150 * 1024, argv


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
def test_conic_reads_the_even_swap_group_off_its_generators(tmp_path):
    # W(D7) at N = 8 has 322,560 elements and W(D8) at N = 9 5,160,960;
    # listing them took 12 s and 547 MB, and did not end.  Both are
    # minimal bundles whose base-trivial part is all 2^(N-2) even swaps.
    for n in (8, 9):
        gens = tmp_path / f"gens{n}.json"
        gens.write_text(json.dumps([list(map(list, g.mat))
                                    for g in _weyl_d_generators(n)]))
        code, err, peak_kb = _fresh_cli(["conic", "--gens", str(gens)])
        assert (code, err) == (2, "invariant violation (bug report trigger):"
                               " minimal bundle with base-trivial image of"
                               f" order {2 ** (n - 2)}\n"), n
        assert peak_kb < 150 * 1024, n
    code, err, _ = _fresh_cli(["conic", "--gens", str(gens),
                               "--limit", "1000000"])
    assert (code, err) == (1, "error: group closure exceeded limit 1000000\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("n", (9, 10))
def test_invariants_refuses_an_infinite_group_at_once(tmp_path, n):
    # The affine E8 (N = 9) and the E10 (N = 10) reflections generate
    # infinite groups.  Their product, a Coxeter element, has no power up
    # to 120 equal to I, so the closure ends before any orbit grows; it
    # once ran past 60 s and 1.2 GB.
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([list(map(list, g.mat))
                                for g in _affine_reflections(n)]))
    t0 = time.monotonic()
    code, err, peak_kb = _fresh_cli(["invariants", "--gens", str(gens)])
    assert time.monotonic() - t0 < 2
    assert (code, err) == (1, "error: group closure exceeded limit 10000000\n")
    assert peak_kb < 150 * 1024


def test_invariants_e8_sums_traces_from_the_chain(tmp_path, capsys):
    # W(E8) cannot be listed; its trace sum comes from the chain
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([list(map(list, g.mat))
                                for g in simple_reflections(8)]))
    code, report = run_json(capsys, "invariants", "--gens", str(gens),
                            "--limit", "700000000")
    assert code == 0
    res = report["results"]
    assert (res["order"], res["rank"], res["trace_sum"], res["holds"]) == \
        (696729600, 1, 0, True)
    assert cli.main(["invariants", "--gens", str(gens)]) == 1
    assert capsys.readouterr().err == \
        "error: group closure exceeded limit 10000000\n"


def test_invariants_refuses_a_trace_sum_out_of_range(tmp_path, capsys):
    # Every generator entry and orbit point is in 16-bit range, but some
    # element's image of H is not: the trace sum refuses it, as a listing
    # of the group would.
    gens = tmp_path / "gens.json"
    for power, n, code in ((31, 10, 1), (39, 9, 0)):
        gens.write_text(json.dumps([
            list(map(list, g.mat))
            for g in _conjugated(n, _transpositions(n, 3), power)]))
        assert cli.main(["invariants", "--gens", str(gens)]) == code
        out, err = capsys.readouterr()
        if code:
            assert (out, err) == \
                ("", "error: matrix entries exceeded supported range\n")
        else:
            res = json.loads(out)["results"]
            assert (res["order"], res["trace_sum"], res["holds"]) == \
                (24, 144, False)


def test_weyl_n8_needs_chain(capsys):
    code = cli.main(["weyl", "--n", "8", "--limit", "1000"])
    assert code == 1
    assert "limit" in capsys.readouterr().err


def test_weyl_n8_closure_refused_at_once(capsys):
    t0 = time.monotonic()
    code = cli.main(["weyl", "--n", "8", "--order-only"])
    assert time.monotonic() - t0 < 2
    assert code == 1
    assert capsys.readouterr().err == \
        "error: group closure exceeded limit 10000000\n"


def test_cone_limit(capsys):
    t0 = time.monotonic()
    assert cli.main(["cone", "--n", "14", "--scan", "5"]) == 1
    assert time.monotonic() - t0 < 2
    err = capsys.readouterr().err
    assert "exceed the limit of 1000000 (--limit)" in err
    _, plain = run_json(capsys, "cone", "--n", "6", "--scan", "0,1")
    _, capped = run_json(capsys, "cone", "--n", "6", "--scan", "0,1",
                         "--limit", "27")
    assert capped["inputs"] == plain["inputs"]
    assert capped["results"] == plain["results"]
    assert cli.main(["cone", "--n", "6", "--scan", "0,1", "--limit", "26"]) == 1
    assert "limit of 26" in capsys.readouterr().err


def test_selftest_quick(capsys):
    code, out = run(capsys, "selftest", "--quick")
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    assert res["all_ok"] is True
    assert len(res["criteria"]) == 13
    assert all(c["ok"] for c in res["criteria"])


def test_selftest_report_is_the_same_on_every_run(capsys):
    first = run(capsys, "selftest", "--quick")
    assert run(capsys, "selftest", "--quick") == first
    criteria = json.loads(first[1])["results"]["criteria"]
    assert all(set(c) == {"name", "ok", "detail"} for c in criteria)
    assert not [c["detail"] for c in criteria
                if re.search(r"\d+\.\d+s", c["detail"])]
