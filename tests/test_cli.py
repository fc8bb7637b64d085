"""End-to-end CLI coverage through main(argv)."""

import json

import numpy as np
import pytest

from hsprg.cli import main


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
def test_gen_rejects_seed_counts_below_one(tmp_path, rad_dist, count):
    params = write(tmp_path / "p.json", {"t": 2, "k": 2})
    with pytest.raises(SystemExit, match="--seeds must be at least 1"):
        main(["gen", "--dist", rad_dist, "--params", params, "--seeds", count,
              "--out", str(tmp_path / "s.csv")])


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


def test_robp_nisan(tmp_path):
    out = tmp_path / "labels.json"
    assert main(["robp", "nisan", "--space", "2", "--label-bits", "2",
                 "--steps", "2", "--seed", str(5 | (3 << 6) | (33 << 12)),
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["labels"] == [1, 2]
    assert rep["seed_bits"] == 18


def test_sandwich_audit(tmp_path):
    out = tmp_path / "audit.json"
    assert main(["sandwich", "audit", "--a", "0.3", "--b", "0.04",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True and rep["K"] % 2 == 0


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
def test_estimate_rejects_combiner_that_does_not_fit(tmp_path, rad_dist, comb, kind):
    system = write(tmp_path / "sys.json", {"W": [[1.0] * 3] * 4, "Theta": [0.0] * 3})
    comb = write(tmp_path / "comb.json", comb)
    with pytest.raises(ValueError, match=f"{kind} combiner .* d=3 halfspaces"):
        main(["estimate", "--f", system, "--combiner", comb, "--dist", rad_dist,
              "--gen", "kwise:2", "--mode", "exact", "--out", str(tmp_path / "r.csv")])
    assert not (tmp_path / "r.csv").exists()


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
