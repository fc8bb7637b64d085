"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hsprg.cli  # noqa: E402
import hsprg.harness  # noqa: E402
import measure  # noqa: E402
from hsprg.harness import EstimationReport  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, ExactEnum, McCli  # noqa: E402


def same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    one, two, other = (WORKLOADS[name](seed, tmp_path) for seed in (7, 7, 8))
    for r in (0, 1):
        assert same(one.round_inputs(r), two.round_inputs(r))
    assert not same(one.round_inputs(1), other.round_inputs(1))


def test_same_seed_same_cli_input_files(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        McCli(7, d).setup()
    for f in sorted(dirs[0].glob("*.json")):
        if f.name != "report.json":  # carries a wall-clock field
            assert f.read_bytes() == (dirs[1] / f.name).read_bytes(), f.name


def test_tracer_patches_every_caller_and_restores():
    original = hsprg.harness.estimate_fooling_error
    assert hsprg.cli.estimate_fooling_error is original
    tracer = Tracer()
    with tracer.installed():
        assert hsprg.harness.estimate_fooling_error is not original
        assert hsprg.cli.estimate_fooling_error is hsprg.harness.estimate_fooling_error
    assert hsprg.harness.estimate_fooling_error is original
    assert hsprg.cli.estimate_fooling_error is original


def _one_round(cls, tmp_path, traced: bool):
    workload = cls(3, tmp_path / ("traced" if traced else "plain"))
    workload.workdir.mkdir()
    tracer = Tracer() if traced else None
    if traced:
        with tracer.installed():
            workload.setup()
        setup_stats = tracer.take()
    else:
        workload.setup()
    workload.references()
    if not traced:
        return measure.measure(workload, 0), None
    with tracer.installed():
        m = measure.measure(workload, 0, tracer)
    return m, measure.layer_metrics(m, setup_stats, tracer.peaks)


@pytest.mark.parametrize("cls, layer", [(McCli, "mzgen.generate_calls"),
                                         (WORKLOADS["mc_batch"], "mzgen.sample_batch_s")])
def test_traced_run_returns_untraced_results(cls, layer, tmp_path):
    plain, _ = _one_round(cls, tmp_path, traced=False)
    traced, layers = _one_round(cls, tmp_path, traced=True)
    assert plain.failures == [] and traced.failures == []
    assert plain.digests == traced.digests
    assert set(layers) == set(measure.LAYER_METRICS)
    assert layers[layer]["value"] > 0


def test_wrong_reference_is_counted(tmp_path):
    workload = McCli(3, tmp_path)
    workload.setup()
    workload.references()
    workload.ref = workload.ref + 0.5  # no estimate can be within 5 standard errors
    m = measure.measure(workload, 0)
    estimates = sum(k.startswith("estimate") for k in {op.kind for op in workload.round_ops(0)})
    assert len(m.failures) == estimates
    assert m.attempted == estimates + 1
    assert all("reference" in f for f in m.failures)


def test_exact_check_compares_with_the_program_reference(tmp_path):
    workload = ExactEnum(3, tmp_path)
    workload.setup()
    workload.ref = [Fraction(1, 3)] * 4

    def report(true_e):
        return EstimationReport("fooling", 16, 1, None, "exact-enumeration", 1 << 16,
                                true_e, 0.25, abs(true_e - 0.25), 0.0, 16, 1.0)

    assert workload._check(report(float(Fraction(1, 3))), 0)[0] == 2 * (1 << 16)
    with pytest.raises(CheckFailed):
        workload._check(report(0.5), 0)


def test_median_round_rate_weighs_every_kind_once():
    m = measure.Measurement()
    m.samples = {"slow": [(10, 1.0), (10, 100.0), (10, 1.0)], "fast": [(90, 1.0)]}
    m.raw = {"slow": [2.0, 2.0, 200.0], "fast": [2.0]}
    assert math.isclose(m.rate(), 100 / 2.0)
    assert math.isclose(m.rate(wall=True), 100 / 4.0)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_cli",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
