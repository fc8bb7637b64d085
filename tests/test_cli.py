"""End-to-end CLI coverage through main(argv)."""

import argparse
import json
import math
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from hsprg import harness
from hsprg.cli import build_parser, main
from hsprg.distributions import ProductDistribution
from hsprg.halfspace import CombinerSpec, HalfspaceSystem
from hsprg.harness import estimate_fooling_error
from hsprg.mzgen import MZGenerator, alphabets_from_distribution
from hsprg.robp import ROBP, halfspace_to_robp, product_robp


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def rad_dist(tmp_path):
    return write(tmp_path / "dist.json",
                 {"coord": {"kind": "multiset", "values": [-1.0, 1.0]}, "n": 4})


def test_version_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_discretize(tmp_path):
    dist = write(tmp_path / "d.json", {"coord": {"kind": "gaussian"}, "n": 4})
    out = tmp_path / "rep.json"
    assert main(["discretize", "--dist", dist, "--eps", "0.2", "--C", "3",
                 "--gamma", "0.0625", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["n"] == 4 and len(rep["coords"]) == 4
    assert len(rep["coords"][0]["boundaries"]) == 17


def test_regularity(tmp_path):
    weights = write(tmp_path / "w.json", {"W": [[10.0], [1.0], [1.0], [1.0],
                                                [1.0], [1.0], [1.0], [1.0],
                                                [1.0], [1.0]]})
    out = tmp_path / "reg.json"
    assert main(["regularity", "--weights", weights, "--delta", "0.2",
                 "--L", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["per_dimension"][0]["critical_index"] == 1
    assert rep["head"]["H0"] == [0]
    assert rep["head"]["classification"] == ["REG"]


def test_gen_csv_and_bin(tmp_path, rad_dist, capsys):
    params = write(tmp_path / "p.json", {"t": 2, "k": 2})
    out_csv = tmp_path / "samples.csv"
    assert main(["gen", "--dist", rad_dist, "--params", params, "--seeds", "8",
                 "--master-seed", "5", "--out", str(out_csv)]) == 0
    rows = np.loadtxt(out_csv, delimiter=",")
    assert rows.shape == (8, 4)
    assert set(np.unique(rows)) <= {-1.0, 1.0}
    out_bin = tmp_path / "samples.bin"
    assert main(["gen", "--dist", rad_dist, "--params", params, "--seeds", "8",
                 "--master-seed", "5", "--out", str(out_bin)]) == 0
    raw = np.fromfile(out_bin, dtype="<f8").reshape(8, 4)
    assert np.array_equal(raw, rows)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_rejects_seed_counts_below_one(tmp_path, rad_dist, capsys, count):
    params = write(tmp_path / "p.json", {"t": 2, "k": 2})
    assert main(["gen", "--dist", rad_dist, "--params", params, "--seeds", count,
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": f"--seeds must be at least 1, got {count}"}
    assert not (tmp_path / "s.csv").exists()


def test_robp_pipeline(tmp_path, capsys):
    prog = tmp_path / "prog.json"
    assert main(["robp", "compile", "--weights", "[1, 1, -1]", "--theta", "0.5",
                 "--out", str(prog)]) == 0
    head = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert head["T"] == 3 and head["D"] == 1

    check_out = tmp_path / "check.json"
    assert main(["robp", "check", "--prog", str(prog), "--out", str(check_out)]) == 0
    assert json.loads(check_out.read_text())["monotone"] is True

    down, up = tmp_path / "down.json", tmp_path / "up.json"
    assert main(["robp", "sandwich", "--prog", str(prog), "--eps", "0.5",
                 "--out-down", str(down), "--out-up", str(up)]) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["gap"] <= 0.5
    assert down.exists() and up.exists()


@pytest.mark.parametrize("cmd", ["check", "sandwich"])
@pytest.mark.parametrize("program,message", [
    # the intersection of two monotone halfspace programs is not monotone
    (product_robp([halfspace_to_robp([-2, -2, -2], 0, [[-1, 1]] * 3)[0],
                   halfspace_to_robp([-2, 1, 1], 1, [[-1, 1]] * 3)[0]],
                  lambda bits: int(all(bits))).to_json(), "layer 2 is not a chain"),
    ({"D": 1, "trans": [[[0, 1.5]]], "accept": [0, 1]}, "layer 0: successors must be integers"),
    ({"D": 1, "trans": [[[0, 2]]], "accept": [0, 1]}, "layer 0: successor out of range"),
    ({"D": 1, "trans": [[[0, 1]]]}, "program has no accept"),
    ({"D": 1, "trans": [[0, 1]], "accept": [0, 1]}, "trans must be a list of layers of rows"),
    ([[[0, 1]]], "a program must be a JSON object"),
    ({"D": True, "trans": [[[0, 1]]], "accept": [0, 1]}, "D must be an integer, got True"),
], ids=["not-monotone", "non-integer", "out-of-range", "missing-key", "non-list-row",
        "not-an-object", "bool-label-bits"])
def test_robp_rejects_bad_program_with_json(tmp_path, capsys, cmd, program, message):
    prog = write(tmp_path / "prog.json", program)
    args = {"check": ["--out", str(tmp_path / "check.json")],
            "sandwich": ["--eps", "0.5", "--out-down", str(tmp_path / "d.json"),
                         "--out-up", str(tmp_path / "u.json")]}[cmd]
    status = main(["robp", cmd, "--prog", prog] + args)
    assert status == 1
    if cmd == "check" and message.startswith("layer 2"):  # check reports a counterexample
        assert json.loads((tmp_path / "check.json").read_text())["monotone"] is False
    else:
        assert json.loads(capsys.readouterr().out)["error"].startswith(message)
        assert not (tmp_path / "d.json").exists()


def test_robp_nisan(tmp_path):
    out = tmp_path / "labels.json"
    assert main(["robp", "nisan", "--space", "2", "--label-bits", "2",
                 "--steps", "2", "--seed", str(5 | (3 << 6) | (33 << 12)),
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["labels"] == [1, 2]
    assert rep["seed_bits"] == 18


@pytest.mark.parametrize("argv, message", [
    (["robp", "nisan", "--space", "2", "--label-bits", "2", "--steps", "2", "--seed", "-1"],
     "seed needs exactly 18 bits"),
    (["robp", "nisan", "--space", "-1", "--label-bits", "1", "--steps", "4", "--seed", "0"],
     "space must be nonnegative, got -1"),
    (["robp", "nisan", "--space", "1", "--label-bits", "-1", "--steps", "4", "--seed", "0"],
     "label bits must be nonnegative, got -1"),
    (["robp", "compile", "--weights", "[1, 1]", "--theta", "0.5", "--alphabet", "[]"],
     "alphabets must be nonempty"),
    (["robp", "compile", "--weights", "[1, 1]", "--theta", "0.5", "--alphabet", "[[-1, 1]]"],
     "need one alphabet per coordinate"),
    (["discretize", "--eps", "0"], "need eps > 0, C >= 1, n >= 1"),
    (["robp", "compile", "--weights", "[1, 1]", "--theta", "0.5", "--alphabet", "5"],
     "--alphabet: TypeError(\"'int' object is not subscriptable\")"),
    (["robp", "compile", "--weights", "[1, 1]", "--theta", "0.5", "--alphabet", "[[-1, 1], 3]"],
     "--alphabet: TypeError('expected a JSON list, got 3')"),
    (["robp", "compile", "--weights", "5", "--theta", "0.5"],
     "--weights: TypeError('expected a JSON list, got 5')"),
    (["robp", "compile", "--weights", '{"a": 1}', "--theta", "0.5"],
     "--weights: TypeError(\"expected a JSON list, got {'a': 1}\")"),
    (["robp", "compile", "--weights", "[Infinity]", "--theta", "0.5"],
     "--weights: OverflowError('cannot convert Infinity to integer ratio')"),
    (["robp", "compile", "--weights", "[1]", "--theta", "inf"],
     "weights, theta and alphabet letters must be finite, got inf"),
    (["discretize", "--eps", "0.1", "--gamma", "inf"], "gamma=inf must be 2^-s for integer s"),
    (["discretize", "--eps", "0.1", "--gamma", "nan"], "gamma=nan must be 2^-s for integer s"),
    (["discretize", "--eps", "nan"], "eps must be finite, got nan"),
    (["discretize", "--eps", "0.1", "--C", "nan"], "C must be finite, got nan"),
    (["estimate", "--gen", "mz", "--t", "2", "--k", "2", "--mode", "mc", "--trials", "10"],
     "dimensions differ: law n=4, generator n=4, system n=3"),
], ids=["nisan-negative-seed", "nisan-negative-space", "nisan-negative-label-bits",
        "compile-empty-alphabet", "compile-one-alphabet-for-two-steps", "discretize-eps-0",
        "compile-int-alphabet", "compile-int-step-alphabet", "compile-int-weights",
        "compile-object-weights", "compile-infinite-weight", "compile-infinite-theta",
        "discretize-gamma-inf", "discretize-gamma-nan", "discretize-eps-nan", "discretize-C-nan",
        "estimate-3-weights-on-4-coordinates"])
def test_rejected_input_prints_json_error(tmp_path, capsys, argv, message):
    """Every subcommand turns a rejected input into one JSON error line and status 1."""
    out = tmp_path / "out.json"
    if argv[0] == "discretize":
        argv = argv[:1] + ["--dist", write(tmp_path / "d.json",
                                           {"coord": {"kind": "gaussian"}, "n": 4})] + argv[1:]
    if argv[0] == "estimate":
        argv = argv[:1] + [
            "--f", write(tmp_path / "sys.json", {"W": [[1.0], [1.0], [1.0]], "Theta": [0.5]}),
            "--combiner", write(tmp_path / "comb.json", {"kind": "single"}),
            "--dist", write(tmp_path / "d.json",
                            {"coord": {"kind": "multiset", "values": [-1.0, 1.0]}, "n": 4}),
        ] + argv[1:]
    assert main(argv + ["--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": message}
    assert not out.exists()


def test_sandwich_audit(tmp_path):
    out = tmp_path / "audit.json"
    assert main(["sandwich", "audit", "--a", "0.3", "--b", "0.04",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True and rep["K"] % 2 == 0


# stdout of `hsprg sandwich audit --a 0.1 --b 0.01`, recorded before the
# audit was kept with the polynomial
AUDIT_GOLDEN = """{
 "a": 0.1,
 "b": 0.01,
 "K": 542,
 "ok": true,
 "c0_ratio": 7.090661919111453,
 "violations": {
  "p2_on[-1,-a]": 0.0,
  "p3_on[-a,0]": 0.0,
  "p4_on[0,1]": 0.0,
  "p1_left_nonneg": 0.0,
  "p5_right_ge1": 0.0,
  "p6_envelope_log2": 0.0
 }
}
"""


def test_sandwich_audit_golden(capsys):
    assert main(["sandwich", "audit", "--a", "0.1", "--b", "0.01"]) == 0
    assert capsys.readouterr().out == AUDIT_GOLDEN


def test_sandwich_audit_computes_the_grid_once(monkeypatch, capsys):
    from hsprg.sandwich_poly import UnivariatePoly
    calls = []
    outside = UnivariatePoly._log2_outside
    monkeypatch.setattr(UnivariatePoly, "_log2_outside",
                        lambda self, xs: calls.append(len(xs)) or outside(self, xs))
    assert main(["sandwich", "audit", "--a", "0.37", "--b", "0.02"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert len(calls) == 2  # one audit: the outer grid on each side


@pytest.mark.parametrize("argv,message", [
    (["--a", "1.5", "--b", "0.01"], "need 0 < a < 1 and 0 < b < 1"),
    (["--a", "0.1", "--b", "0"], "need 0 < a < 1 and 0 < b < 1"),
])
def test_sandwich_audit_rejects_bad_parameters_with_json(capsys, argv, message):
    assert main(["sandwich", "audit"] + argv) == 1
    assert json.loads(capsys.readouterr().out) == {"error": message}


def test_sandwich_audit_reports_a_failed_construction(monkeypatch, capsys):
    from hsprg import cli
    from hsprg.sandwich_poly import DGJSVError

    def fail(a, b):
        raise DGJSVError(f"no construction passed the audit for a={a}, b={b}")

    monkeypatch.setattr(cli, "dgjsv_poly", fail)
    assert main(["sandwich", "audit", "--a", "0.1", "--b", "0.01"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "no construction passed the audit for a=0.1, b=0.01"}


@pytest.mark.parametrize("override,message", [
    ({"--t": "4"}, "need t > 4"),
    ({"--T": "4"}, "a=384.000 >= 1: T=4 too small for d=2, t=8.0"),
    ({"--T": "4095"}, "T must be a positive even integer"),
    ({"--weights": "[1, 1"}, "Expecting ','"),
    ({"--weights": "5"}, "--weights: TypeError('expected a JSON list, got 5')"),
    ({"--weights": '{"a": 1}'}, "--weights: TypeError(\"expected a JSON list, got {'a': 1}\")"),
    ({"--weights": "[[1], 1, 1, 1, 1, 1]"},
     "--weights: TypeError(\"float() argument must be a string or a real number, not 'list'\")"),
    ({"--weights": "[Infinity, 1, 1, 1, 1, 1]"}, "norms must be finite"),
    ({"--L": "-1"}, "head budget L must be nonnegative"),
    ({"--delta": "nan"}, "delta must be finite and positive, got nan"),
    ({"--weights": "[1, 1, 1, 1]"}, "need one m2 and one m4 per weight, 4 weights"),
    ({"--delta": "nan", "--L": "6"}, "delta must be finite and positive, got nan"),  # empty tail
])
def test_sandwich_build_rejects_bad_parameters_with_json(tmp_path, capsys, override, message):
    dist = write(tmp_path / "d6.json",
                 {"coord": {"kind": "multiset", "values": [-1.0, 1.0]}, "n": 6})
    args = {"--weights": "[1,1,1,1,1,1]", "--theta": "1.0", "--dist": dist,
            "--delta": "0.25", "--t": "8", "--T": "4096", "--d": "2", "--L": "1",
            "--out": str(tmp_path / "poly.json")}
    args.update(override)
    status = main(["sandwich", "build"] + [s for kv in args.items() for s in kv])
    assert status == 1
    assert json.loads(capsys.readouterr().out)["error"].startswith(message)
    assert not (tmp_path / "poly.json").exists()


def test_sandwich_build(tmp_path):
    dist = write(tmp_path / "d6.json",
                 {"coord": {"kind": "multiset", "values": [-1.0, 1.0]}, "n": 6})
    out = tmp_path / "poly.json"
    assert main(["sandwich", "build", "--weights", "[1,1,1,1,1,1]",
                 "--theta", "1.0", "--dist", dist, "--delta", "0.25",
                 "--t", "8", "--T", "4096", "--d", "2", "--L", "1",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["order"] == 6 and rep["tail_regular"] is True
    assert rep["P"]["kind"] == "dgjsv"


def test_estimate_exact(tmp_path, rad_dist, capsys):
    system = write(tmp_path / "sys.json",
                   {"W": [[1.0], [1.0], [1.0], [1.0]], "Theta": [1.0]})
    comb = write(tmp_path / "comb.json", {"kind": "single"})
    out = tmp_path / "report.csv"
    assert main(["estimate", "--f", system, "--combiner", comb, "--dist", rad_dist,
                 "--gen", "kwise:4", "--mode", "exact", "--out", str(out)]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert float(line["error"]) == 0.0  # 4-wise over 4 coords is the product law
    header = out.read_text().splitlines()[0]
    assert header.startswith("experiment,n,d,eps,method")


def test_estimate_nisan_mc(tmp_path, rad_dist):
    system = write(tmp_path / "sys.json",
                   {"W": [[1.0], [1.0], [1.0], [1.0]], "Theta": [0.0]})
    comb = write(tmp_path / "comb.json", {"kind": "single"})
    out = tmp_path / "report.csv"
    assert main(["estimate", "--f", system, "--combiner", comb, "--dist", rad_dist,
                 "--gen", "nisan", "--nisan-space", "4", "--mode", "mc",
                 "--trials", "2000", "--master-seed", "11", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 2


def test_estimate_mz_mc(tmp_path, rad_dist):
    system = write(tmp_path / "sys.json",
                   {"W": [[1.0], [1.0], [1.0], [1.0]], "Theta": [0.0]})
    comb = write(tmp_path / "comb.json", {"kind": "single"})
    out = tmp_path / "report.json"
    assert main(["estimate", "--f", system, "--combiner", comb, "--dist", rad_dist,
                 "--gen", "mz", "--t", "2", "--k", "4", "--mode", "mc",
                 "--trials", "2000", "--master-seed", "9", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep[0]["method"] == "monte-carlo"


@pytest.mark.parametrize("comb, kind", [
    ({"kind": "monotone-table", "table": [0, 0, 0, 1]}, "monotone-table"),
    ({"kind": "single", "index": 5}, "single"),
    ({"kind": "decision-tree", "tree": {"hs": 4, "low": {"leaf": 0}, "high": {"leaf": 1}}},
     "decision-tree"),
], ids=["table-4-entries", "single-index-5", "tree-reads-hs-4"])
def test_estimate_rejects_combiner_that_does_not_fit(tmp_path, rad_dist, capsys, comb, kind):
    system = write(tmp_path / "sys.json", {"W": [[1.0] * 3] * 4, "Theta": [0.0] * 3})
    comb = write(tmp_path / "comb.json", comb)
    assert main(["estimate", "--f", system, "--combiner", comb, "--dist", rad_dist,
                 "--gen", "kwise:2", "--mode", "exact", "--out", str(tmp_path / "r.csv")]) == 1
    assert re.fullmatch(f"{kind} combiner .* d=3 halfspaces",
                        json.loads(capsys.readouterr().out)["error"])
    assert not (tmp_path / "r.csv").exists()


GAUSSIAN_DIST = {"coord": {"kind": "gaussian"}, "n": 4}
SKEWED_DIST = {"coord": {"kind": "discrete", "values": [-1.0, 1.0], "probs": [0.25, 0.75]},
               "n": 4}


@pytest.mark.parametrize("argv, dist, message", [
    (["--gen", "mz", "--t", "2", "--mode", "mc", "--trials", "0"], None,
     "need at least one trial, got 0"),
    (["--gen", "mz", "--t", "3"], None, "t must be a power of 2"),
    (["--gen", "nisan"], SKEWED_DIST, "coordinate 0 is not a uniform law"),
    (["--gen", "mz", "--t", "2"], GAUSSIAN_DIST, "coordinate 0 is not discrete"),
    (["--gen", "foo"], None, "unknown generator 'foo'"),
    (["--gen", "mz", "--t", "2", "--k", "0"], None, "independence order k must be >= 1"),
    (["--gen", "kwise:0"], None, "independence order k must be >= 1"),
    (["--gen", "nisan", "--nisan-space", "-1"], None, "space must be nonnegative, got -1"),
], ids=["trials-0", "t-3", "skewed-law", "gaussian-law", "unknown-gen", "mz-k-0", "kwise-0",
        "nisan-space-negative"])
def test_estimate_rejects_bad_input_with_json(tmp_path, rad_dist, capsys, argv, dist, message):
    system = write(tmp_path / "sys.json", {"W": [[1.0]] * 4, "Theta": [0.0]})
    comb = write(tmp_path / "comb.json", {"kind": "single"})
    dist = rad_dist if dist is None else write(tmp_path / "law.json", dist)
    assert main(["estimate", "--f", system, "--combiner", comb, "--dist", dist, *argv,
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": message}
    assert not (tmp_path / "r.csv").exists()


@pytest.fixture
def rad16(tmp_path):
    """x_1 + ... + x_16 >= 2 on {-1, 1}^16: the system, combiner and law files."""
    return ["--f", write(tmp_path / "sys.json", {"W": [[1.0]] * 16, "Theta": [2.0]}),
            "--combiner", write(tmp_path / "comb.json", {"kind": "single"}),
            "--dist", write(tmp_path / "dist.json", {"coord": RAD_LAW, "n": 16})]


def test_estimate_exact_past_2_24_seeds(tmp_path, rad16, capsys):
    # 2^72 seeds, read through the image of each of the 16 hash multipliers
    out = tmp_path / "r.json"
    assert main(["estimate", *rad16, "--gen", "mz", "--t", "4", "--k", "4", "--mode", "exact",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())[0]
    assert (rep["method"], rep["samples"], rep["seed_bits"]) == ("exact-enumeration", 2 ** 72, 72)
    assert json.loads(capsys.readouterr().out) == rep
    assert float(rep["true_exp"]) == 26333 / 65536  # Pr[at least 9 of 16 coordinates are 1]


def test_estimate_reports_an_oversized_seed_space_with_json(tmp_path, rad16, capsys):
    # t = 512: 511 multipliers put every coordinate in a bucket of its own, 2^16 points each,
    # and multiplier 0 puts all 16 in bucket 0, whose rows have rank 11
    assert main(["estimate", *rad16, "--gen", "mz", "--t", "512", "--k", "4", "--mode", "exact",
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": f"seed space 2^18450 exceeds cap {harness.ENUM_CAP}, "
                 f"and so does its image, of at least {511 * 2 ** 16 + 2 ** 11} points"}
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("t,points", [
    (2 ** 20, 1023 * 2 ** 16 + 2 ** 11),  # the count stops after its first 1024 multipliers
    (2 ** 40, 2 ** 40),                   # more multipliers than the cap: nothing is counted
])
def test_estimate_stops_counting_a_large_image_at_the_cap(tmp_path, rad16, capsys, t, points):
    t0 = time.perf_counter()
    assert main(["estimate", *rad16, "--gen", "mz", "--t", str(t), "--k", "4", "--mode", "exact",
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert time.perf_counter() - t0 < 5
    seed_bits = MZGenerator([[-1.0, 1.0]] * 16, t=t, k=4).seed_bits
    assert json.loads(capsys.readouterr().out) == {
        "error": f"seed space 2^{seed_bits} exceeds cap {harness.ENUM_CAP}, "
                 f"and so does its image, of at least {points} points"}


RAD_LAW = {"kind": "multiset", "values": [-1.0, 1.0]}


@pytest.mark.parametrize("system, comb, message", [
    ({"strict": [False, True]}, {"kind": "monotone-table", "table": [0, 1]},
     "strict needs one flag per halfspace, got 2 for d=1"),
    ({}, {"kind": "monotone-table", "table": [0, 2]}, "truth table entries must be 0 or 1, got 2"),
    ({}, {"kind": "monotone-table", "table": [0, 1.5]},
     "truth table entries must be 0 or 1, got 1.5"),
    ({}, {"kind": "decision-tree", "tree": {"hs": 0, "low": {"leaf": 0}, "high": {"leaf": 3}}},
     "a leaf must be 0 or 1, got 3"),
], ids=["strict-two-flags", "table-2", "table-1.5", "tree-leaf-3"])
def test_estimate_rejects_bad_system_or_combiner_with_json(tmp_path, capsys, system, comb,
                                                           message):
    # d = 1, x1 + x2 >= 0.5 on {-1, 1}^2
    system = write(tmp_path / "sys.json", {"W": [[1.0], [1.0]], "Theta": [0.5], **system})
    comb = write(tmp_path / "comb.json", comb)
    dist = write(tmp_path / "dist.json", {"coord": RAD_LAW, "n": 2})
    assert main(["estimate", "--f", system, "--combiner", comb, "--dist", dist,
                 "--gen", "kwise:2", "--mode", "exact", "--out", str(tmp_path / "r.csv")]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": message}
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("params, dist, message", [
    ({"t": 3}, None, "t must be a power of 2"),
    ({"t": 2}, SKEWED_DIST, "coordinate 0 is not a uniform law"),
    ({"t": 2, "k": -1}, None, "independence order k must be >= 1"),
    ({"t": 4.0}, None, "{params}: TypeError(\"'float' object cannot be interpreted as an integer\")"),
    ({"t": "4"}, None, "{params}: TypeError(\"'str' object cannot be interpreted as an integer\")"),
    ({"k": 2.5}, None, "{params}: TypeError(\"'float' object cannot be interpreted as an integer\")"),
    ({"t": 2}, {"coord": RAD_LAW, "n": 2.5}, "n must be an integer, got 2.5"),
    ({"t": 2}, {"coord": RAD_LAW, "n": "3"}, "n must be an integer, got '3'"),
    ({"t": 2}, {"coord": RAD_LAW, "n": True}, "n must be an integer, got True"),
], ids=["t-3", "skewed-law", "k-negative", "t-float", "t-string", "k-float", "n-float",
        "n-string", "n-true"])
def test_gen_rejects_bad_input_with_json(tmp_path, rad_dist, capsys, params, dist, message):
    dist = rad_dist if dist is None else write(tmp_path / "law.json", dist)
    params = write(tmp_path / "p.json", params)
    assert main(["gen", "--dist", dist, "--params", params,
                 "--seeds", "4", "--out", str(tmp_path / "s.csv")]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": message.format(params=params)}
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("name, data, error", [
    ("combiner", {"kind": "monotone-table"}, "KeyError('table')"),
    ("combiner", {"nokind": 1}, "KeyError('kind')"),
    ("combiner", {"kind": "decision-tree", "tree": {"hs": 0}}, "KeyError('low')"),
    ("combiner", [1, 2], "TypeError('list indices must be integers or slices, not str')"),
    ("combiner", {"kind": "single", "index": "a"},
     "TypeError(\"'str' object cannot be interpreted as an integer\")"),
    ("f", {"W": [[1.0]] * 4}, "KeyError('Theta')"),
    ("dist", {"coord": {"kind": "discrete", "values": [-1.0, 1.0]}, "n": 4},
     "KeyError('probs')"),
], ids=["table-missing", "kind-missing", "tree-low-missing", "list-combiner",
        "string-index", "theta-missing", "probs-missing"])
def test_estimate_rejects_malformed_json_file(tmp_path, rad_dist, capsys, name, data, error):
    files = {"f": write(tmp_path / "sys.json", {"W": [[1.0]] * 4, "Theta": [0.0]}),
             "combiner": write(tmp_path / "comb.json", {"kind": "single"}),
             "dist": rad_dist}
    files[name] = write(tmp_path / "bad.json", data)
    assert main(["estimate", *(s for kv in files.items() for s in (f"--{kv[0]}", kv[1])),
                 "--gen", "kwise:2", "--out", str(tmp_path / "r.csv")]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": f"{files[name]}: {error}"}
    assert not (tmp_path / "r.csv").exists()


def test_regularity_rejects_infinite_weight(tmp_path, capsys):
    weights = write(tmp_path / "w.json", {"W": [[math.inf], [1.0]]})
    assert main(["regularity", "--weights", weights, "--delta", "0.2"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "norms must be finite"}


@pytest.mark.parametrize("data,delta,error", [
    ({"W": [[1, 2], [3, 4], [5, 6]], "m2": [1.0]}, "0.2",
     "need one m2 and one m4 per weight, 3 weights"),
    ({"W": [[[1.0, 2.0]], [[3.0, 4.0]]]}, "0.2",
     "W must be a vector or an n x d matrix with n, d >= 1, got shape (2, 1, 2)"),
    ({"W": []}, "0.2", "W must be a vector or an n x d matrix with n, d >= 1, got shape (0, 1)"),
    ({"W": [[], []]}, "0.2",
     "W must be a vector or an n x d matrix with n, d >= 1, got shape (2, 0)"),
    ({"W": [1.0, 2.0]}, "nan", "delta must be finite and positive, got nan"),
    ({"W": [1.0, 2.0]}, "-1", "delta must be finite and positive, got -1.0"),
], ids=["short-m2", "3-d", "empty", "no-columns", "nan-delta", "negative-delta"])
def test_regularity_rejects_bad_input(tmp_path, capsys, data, delta, error):
    weights = write(tmp_path / "w.json", data)
    assert main(["regularity", "--weights", weights, "--delta", delta, "--L", "1"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": error}


def test_regularity_rejects_weights_without_W(tmp_path, capsys):
    weights = write(tmp_path / "w.json", {"w": [1.0, 2.0]})
    assert main(["regularity", "--weights", weights, "--delta", "0.2"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": f"{weights}: KeyError('W')"}


@pytest.mark.parametrize("argv", [
    ["discretize", "--eps", "0.1", "--dist"],
    ["regularity", "--delta", "0.2", "--weights"],
    ["robp", "check", "--prog"],
], ids=["discretize", "regularity", "robp-check"])
def test_missing_input_file_prints_json_error(tmp_path, capsys, argv):
    path = str(tmp_path / "absent.json")
    assert main(argv + [path]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": f"[Errno 2] No such file or directory: {path!r}"}


def test_estimate_reports_system_dimension(tmp_path, rad_dist):
    system = write(tmp_path / "sys.json",
                   {"W": [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]],
                    "Theta": [0.0, 0.0]})
    comb = write(tmp_path / "comb.json", {"kind": "intersection"})
    out = tmp_path / "report.json"
    for mode in ("exact", "mc"):
        assert main(["estimate", "--f", system, "--combiner", comb, "--dist", rad_dist,
                     "--gen", "mz", "--t", "2", "--k", "2", "--mode", mode,
                     "--trials", "800", "--master-seed", "9", "--out", str(out)]) == 0
        assert json.loads(out.read_text())[0]["d"] == 2


def test_estimate_mc_report_is_the_library_pair_report(tmp_path):
    sys_json = {"W": [[1.0, 0.5], [-1.0, 2.0], [0.25, 1.0], [1.0, -1.0], [0.5, 0.5]],
                "Theta": [0.1, -0.3]}
    comb_json = {"kind": "monotone-table", "table": [0, 1, 1, 1]}
    dist_json = {"coord": {"kind": "multiset", "values": [-1.5, -0.5, 0.5, 1.5]}, "n": 5}
    out = tmp_path / "report.json"
    assert main(["estimate", "--f", write(tmp_path / "sys.json", sys_json),
                 "--combiner", write(tmp_path / "comb.json", comb_json),
                 "--dist", write(tmp_path / "dist.json", dist_json),
                 "--gen", "mz", "--t", "4", "--k", "3", "--mode", "mc",
                 "--trials", "3001", "--master-seed", "21", "--eps", "0.1",
                 "--experiment", "pair", "--out", str(out)]) == 0
    dist = ProductDistribution.from_json(dist_json)
    lib = estimate_fooling_error(
        (HalfspaceSystem.from_json(sys_json), CombinerSpec.from_json(comb_json)), dist,
        MZGenerator(alphabets_from_distribution(dist), t=4, k=3), mode="mc", trials=3001,
        master_seed=21, experiment="pair", eps=0.1).to_json()
    cli = json.loads(out.read_text())[0]
    for rep in (cli, lib):
        rep.pop("wall_ms")
    assert cli == lib and cli["d"] == 2


class TestParserReuse:
    """`main` parses every call with one parser built once per process."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The namespace of every `main` call from here on, in order."""
        parser, seen = build_parser(), []

        def parse_args(argv=None, namespace=None):
            seen.append(argparse.ArgumentParser.parse_args(parser, argv, namespace))
            return seen[-1]

        monkeypatch.setattr(parser, "parse_args", parse_args)
        return seen

    @pytest.fixture
    def estimate_argv(self, tmp_path, rad_dist):
        system = write(tmp_path / "sys.json", {"W": [[1.0]] * 4, "Theta": [0.0]})
        comb = write(tmp_path / "comb.json", {"kind": "single"})
        return ["estimate", "--f", system, "--combiner", comb, "--dist", rad_dist,
                "--gen", "mz", "--k", "2", "--mode", "mc", "--trials", "64",
                "--master-seed", "3", "--out", str(tmp_path / "r.csv")]

    def test_second_call_builds_no_parser(self, estimate_argv, monkeypatch):
        assert main(estimate_argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(estimate_argv) == 0
        assert built == []

    def test_defaults_do_not_leak_between_calls(self, estimate_argv, parsed):
        assert main(estimate_argv + ["--t", "16"]) == 0
        assert main(estimate_argv) == 0
        assert [ns.t for ns in parsed] == [16, 4]

    def test_estimate_after_gen_has_no_gen_fields(self, tmp_path, rad_dist,
                                                  estimate_argv, parsed):
        params = write(tmp_path / "p.json", {"t": 2, "k": 2})
        assert main(["gen", "--dist", rad_dist, "--params", params, "--seeds", "4",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert main(estimate_argv) == 0
        gen_ns, est_ns = parsed
        assert gen_ns.seeds == 4 and gen_ns.func.__name__ == "cmd_gen"
        assert est_ns.cmd == "estimate" and est_ns.func.__name__ == "cmd_estimate"
        assert not hasattr(est_ns, "seeds") and not hasattr(est_ns, "params")

    def test_bad_argv_exits_2_and_next_call_works(self, estimate_argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--no-such-flag"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: hsprg estimate")
        assert main(estimate_argv) == 0


def readme_commands(*prefixes):
    """The README's CLI example lines that start with one of `prefixes`, as argv."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith(prefixes):
            out.append(shlex.split(line)[1:])
    return out


class TestReadmeExamples:
    """The README's `hsprg gen` and `hsprg robp` lines run as written."""

    def test_readme_robp_and_gen_lines_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "alphabet_dist.json",
              {"coord": {"kind": "multiset", "values": [-1.0, 1.0]}, "n": 16})
        write(tmp_path / "params.json", {"t": 4, "k": 5})
        argvs = readme_commands("hsprg robp ", "hsprg gen ")
        assert [argv[:2] for argv in argvs] == [
            ["gen", "--dist"], ["robp", "compile"], ["robp", "check"], ["robp", "sandwich"],
            ["robp", "nisan"]]
        for argv in argvs:
            assert main(argv) == 0, argv
        assert np.loadtxt("samples.csv", delimiter=",").shape == (1000, 16)
        for name in ("prog.json", "d.json", "u.json"):
            assert (tmp_path / name).exists()

    def test_check_and_sandwich_at_64_weights(self, tmp_path, monkeypatch, capsys):
        # the suffix space has 2^64 members, far past any bitset
        monkeypatch.chdir(tmp_path)
        weights = json.dumps([(-1) ** (i % 3) * (1 + i % 5) for i in range(64)])
        assert main(["robp", "compile", "--weights", weights, "--theta", "2.5",
                     "--out", "prog.json"]) == 0
        widths = ROBP.from_json(json.loads(Path("prog.json").read_text())).widths
        assert main(["robp", "check", "--prog", "prog.json", "--out", "check.json"]) == 0
        check = json.loads(Path("check.json").read_text())
        assert check == {"monotone": True, "orders": [list(range(wd)) for wd in widths]}
        assert main(["robp", "sandwich", "--prog", "prog.json", "--eps", "0.1",
                     "--out-down", "d.json", "--out-up", "u.json"]) == 0
        info = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert 0 <= info["gap"] <= 0.1
        assert info["down_width"] <= max(widths) and info["up_width"] <= max(widths)
