"""End-to-end verification at full scale: one test per published guarantee.

Every test runs the corresponding experiment exactly as the CLI would, at its
full trial count and with the default master seed, then asserts that every
report row is healthy (bounds hold; negative controls fail their bounds).
The terminal summary prints one line per criterion.
"""

import math

import numpy as np
import pytest

from conftest import record_criterion
from test_codec import run_mutation_fuzz

from rotquant import cli
from rotquant.codec import FormatError, deserialize, serialize
from rotquant.core import RotationSpec, apply_rotation, fwht
from rotquant.drive import (
    DrivePayload,
    drive_decode,
    drive_encode,
    scaling_constant_cd,
)
from rotquant.experiments import (
    run_adaptive_decisions,
    run_adaptive_soundness,
    run_bsq_outliers,
    run_bsq_transfer,
    run_cd_expansion,
    run_dme,
    run_drive_biased,
    run_drive_unbiased,
    run_lemma_bottleneck,
    run_scalar_convergence,
    run_vq_decorrelation,
    run_vq_universality,
)
from rotquant.generators import gen_adversarial
from rotquant.metrics import conditional_cov_exact, moment_scan, normal_cdf
from rotquant.bsq import BsqConfig, tv_of_error_function
from rotquant.vq import stein_diagnostic_constant
from _oracles import CD_ORACLE


def unhealthy(rows):
    return [(r.claim, r.d, r.statistic, r.bound, r.slack) for r in rows
            if not r.ok()]


@pytest.fixture(scope="module")
def scalar_rows():
    return run_scalar_convergence((256, 1024, 4096), draws=1_000_000,
                                  threads=4)


def test_criterion_01_kolmogorov(scalar_rows):
    rows = [r for r in scalar_rows if r.claim == "kolmogorov-convergence"]
    ok = len(rows) == 3 and all(r.ok() for r in rows)
    record_criterion(1, "rotated coordinates meet the Kolmogorov bound", ok)
    assert ok, unhealthy(rows)


def test_criterion_02_wasserstein(scalar_rows):
    rows = [r for r in scalar_rows if r.claim == "wasserstein-convergence"]
    ok = len(rows) == 3 and all(r.ok() for r in rows)
    record_criterion(2, "rotated coordinates meet the 1-Wasserstein bound", ok)
    assert ok, unhealthy(rows)


def test_criterion_03_drive_biased():
    rows = run_drive_biased(threads=4)
    in_band = all(0.34 <= r.extra["vnmse"] <= 0.39 for r in rows)
    ok = all(r.ok() for r in rows) and in_band
    record_criterion(3, "biased sign-quantizer error band and identity", ok)
    assert ok, (unhealthy(rows), [r.extra.get("vnmse") for r in rows])


def test_criterion_04_drive_unbiased():
    rows = run_drive_unbiased(threads=4)
    ok = all(r.ok() for r in rows)
    record_criterion(4, "unbiased variance band and bias decay", ok)
    assert ok, unhealthy(rows)


def test_criterion_05_dme():
    rows = run_dme(threads=4)
    ok = all(r.ok() for r in rows)
    record_criterion(5, "distributed mean estimation error scaling", ok)
    assert ok, unhealthy(rows)


def test_criterion_06_outliers():
    rows = run_bsq_outliers(threads=4)
    ok = len(rows) == 4 and all(r.ok() for r in rows)
    record_criterion(6, "outlier escape fractions within tail bounds", ok)
    assert ok, unhealthy(rows)


def test_criterion_07_error_transfer():
    rows = run_bsq_transfer()
    controls = [r for r in rows if r.negative_control]
    ok = (all(r.ok() for r in rows) and len(controls) == 1
          and not controls[0].passed)
    record_criterion(7, "error-transfer bound; unrotated control breaks it", ok)
    assert ok, unhealthy(rows)


def test_criterion_08_exact_bottleneck():
    rows = run_lemma_bottleneck()
    ok = all(r.ok() for r in rows)
    ok = ok and all(r.extra.get("two_valued", True) for r in rows)
    record_criterion(8, "two-layer pair covariance exactly two-valued", ok)
    assert ok, unhealthy(rows)


def test_criterion_09_decorrelation():
    rows = run_vq_decorrelation()
    ok = all(r.ok() for r in rows)
    record_criterion(9, "third rotation layer decorrelates the hard pair", ok)
    assert ok, unhealthy(rows)


def test_criterion_10_universality():
    rows = run_vq_universality(threads=4)
    controls = [r for r in rows if r.negative_control]
    ok = all(r.ok() for r in rows) and len(controls) == 3
    record_criterion(10, "one codebook serves every dimension", ok)
    assert ok, unhealthy(rows)


def test_criterion_11_adaptive():
    rows = run_adaptive_decisions() + run_adaptive_soundness(threads=4)
    ok = all(r.ok() for r in rows)
    record_criterion(11, "adaptive layer decisions exact and sound", ok)
    assert ok, unhealthy(rows)


def test_criterion_12_cd_expansion():
    rows = run_cd_expansion()
    oracle_ok = all(
        abs(scaling_constant_cd(d) - want) <= 1e-12 * want
        for d, want in CD_ORACLE.items()
    )
    ok = all(r.ok() for r in rows) and oracle_ok
    record_criterion(12, "l1 scaling constant expansion within 10/d^2", ok)
    assert ok, (unhealthy(rows), oracle_ok)


def test_criterion_13_exact_examples(tmp_path, capsys):
    checks = {}

    # codec robustness: ten thousand corrupted wires, no undeclared errors
    parsed = run_mutation_fuzz(10_000, seed=7)
    checks["fuzz"] = 0 < parsed < 10_000

    # one rotation layer keeps the two-spike support on three exact values
    # (power-of-4 dimension, so the sqrt(d) normalization is a power of two)
    d = 256
    x = gen_adversarial("two_spike", d)
    m = x[0] + x[0]
    support_ok = True
    for seed in range(50):
        u = apply_rotation(x, RotationSpec(d, 1, seed)) * math.sqrt(d)
        support_ok &= bool(np.all(np.isin(u, (-m, 0.0, m))))
    checks["one-layer-support"] = support_ok

    # reports are independent of the worker count
    a = run_scalar_convergence((256,), draws=200_000, threads=1)
    b = run_scalar_convergence((256,), draws=200_000, threads=4)
    checks["threads-scalar"] = (
        [(r.statistic, r.passed) for r in a] == [(r.statistic, r.passed) for r in b])
    a = run_bsq_outliers(dims=(1024,), draws=200_000, threads=1)
    b = run_bsq_outliers(dims=(1024,), draws=200_000, threads=3)
    checks["threads-outliers"] = (
        [(r.statistic, r.passed) for r in a] == [(r.statistic, r.passed) for r in b])
    a = run_adaptive_soundness(n_inputs=10, d=256, draws=100_000, threads=1)
    b = run_adaptive_soundness(n_inputs=10, d=256, draws=100_000, threads=4)
    checks["threads-soundness"] = a[0].statistic == b[0].statistic

    # a representative bundle of the exact unit examples
    checks["hadamard"] = fwht(np.array([1.0, 0.0]), normalize=True).tolist() == [
        1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]
    checks["hadamard-flat"] = fwht(np.ones(4), normalize=True).tolist() == [
        2.0, 0.0, 0.0, 0.0]
    checks["normal-cdf"] = normal_cdf(0.0) == 0.5
    stats = moment_scan([1.0] + [0.0] * 7)
    checks["moments"] = (stats.sum_sq, stats.sum_abs_cubed, stats.max_sq) == (
        1.0, 1.0, 1.0)
    e0 = np.zeros(8)
    e0[0] = 1.0
    checks["cov-one-hot"] = conditional_cov_exact(e0, np.ones(8), 0, 1) == 0.0
    pay = drive_encode(np.array([-2.5]), RotationSpec(1, 0, 0), mode="biased")
    checks["drive-d1"] = drive_decode(pay).tolist() == [-2.5]
    checks["stein"] = stein_diagnostic_constant(4) < stein_diagnostic_constant(8)
    cfg = BsqConfig(bits=1, tail_mass=0.2)
    checks["tv-b1"] = tv_of_error_function(cfg) == 2.0 * cfg.threshold**2
    try:
        deserialize(b"XXXX" + serialize(np.ones(2))[4:])
        checks["codec-magic"] = False
    except FormatError as err:
        checks["codec-magic"] = err.field == "magic"
    ref = tmp_path / "ref.bin"
    out = tmp_path / "pay.bin"
    ref.write_bytes(serialize(gen_adversarial("flat", 1024)))
    cli_ok = cli.main(["encode", "--gen", "flat", "--d", "1024",
                       "--mode", "drive-biased", "--out", str(out)]) == 0
    cli_ok &= cli.main(["decode", "--in", str(out), "--ref", str(ref)]) == 0
    capsys.readouterr()
    checks["cli"] = cli_ok
    pay2 = deserialize(out.read_bytes())
    checks["cli-payload"] = isinstance(pay2, DrivePayload)

    ok = all(checks.values())
    record_criterion(13, "exact unit examples, fuzz, and parallel invariance", ok)
    assert ok, {k: v for k, v in checks.items() if not v}
