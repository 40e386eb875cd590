import csv
import functools
import importlib
import inspect
import io
import json
import math
import os
import types
from pathlib import Path

import numpy as np
import pytest

from rotquant import cli, core, experiments, vq
from rotquant.adaptive import decide_layers
from rotquant.bsq import BsqConfig, verify_tv_transfer
from rotquant.codec import deserialize, serialize
from rotquant.core import RotationSpec, map_rotated, unit_vector
from rotquant.drive import dme_simulate, measure_drive_error
from rotquant.experiments import (
    DEFAULT_MASTER_SEED,
    run_adaptive_soundness,
    run_bsq_outliers,
    run_scalar_convergence,
)
from rotquant.generators import KINDS, gen_adversarial
from rotquant.reporting import (
    CSV_FIELDS,
    VerifyReport,
    all_ok,
    render_rows,
)
from rotquant.vq import (
    conditional_cov_trials,
    train_gaussian_codebook,
    verify_codebook_universality,
)


# --- adversarial inputs -------------------------------------------------------

def test_generator_kinds():
    assert KINDS == ("one_hot", "two_spike", "flat", "grid_midpoints",
                     "dirichlet_random")
    with pytest.raises(ValueError):
        gen_adversarial("gaussian", 64)
    with pytest.raises(ValueError):
        gen_adversarial("flat", 3)
    with pytest.raises(ValueError):
        gen_adversarial("two_spike", 1)


def test_one_hot_and_two_spike_and_flat():
    e0 = gen_adversarial("one_hot", 8)
    assert e0.tolist() == [1.0] + [0.0] * 7
    ts = gen_adversarial("two_spike", 8)
    s = 1.0 / math.sqrt(2.0)
    assert ts.tolist() == [s, s] + [0.0] * 6
    assert gen_adversarial("flat", 4).tolist() == [0.5, 0.5, 0.5, 0.5]


def test_dirichlet_is_deterministic_unit_norm():
    a = gen_adversarial("dirichlet_random", 256, seed=5)
    b = gen_adversarial("dirichlet_random", 256, seed=5)
    c = gen_adversarial("dirichlet_random", 256, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
    assert (a > 0).any() and (a < 0).any()


def test_grid_midpoints_structure():
    d, tail, bits = 1024, 0.01, 2
    x = gen_adversarial("grid_midpoints", d, tail_mass=tail, bits=bits)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    lv = BsqConfig(bits=bits, tail_mass=tail).levels
    m_hi = float((lv[-2] + lv[-1]) / 2.0)
    n_hi = min(d, max(1, round(d / (m_hi * m_hi))))
    nz = np.nonzero(x)[0]
    assert nz.tolist() == list(range(n_hi))
    signs = np.sign(x[:n_hi])
    assert np.array_equal(signs, (-1.0) ** np.arange(n_hi))


# --- report rows --------------------------------------------------------------

def row(passed, negative=False, **kw):
    """A row that passes (statistic under bound + slack) or fails (over it)."""
    base = dict(experiment="demo", d=64, statistic=0.1 if passed else 0.5,
                bound=0.2, slack=0.01, trials=100, std_err=0.001,
                negative_control=negative)
    base.update(kw)
    return VerifyReport(**base)


def test_row_health_semantics():
    assert row(True).ok()
    assert not row(False).ok()
    assert row(False, negative=True).ok()
    assert not row(True, negative=True).ok()
    assert all_ok([row(True), row(False, negative=True)])
    assert not all_ok([row(True), row(False)])


def test_row_pass_is_derived_from_its_numbers():
    assert row(True, statistic=0.25, bound=0.25, slack=0.0).passed  # a tie passes
    assert not row(True, statistic=math.nan).passed
    assert row(True, statistic=-math.inf).to_row()["pass"] is True
    rep = row(True)
    rep.statistic = 1.0
    assert not rep.passed and not rep.ok()
    with pytest.raises(TypeError):
        VerifyReport(experiment="demo", d=64, statistic=0.1, bound=0.2,
                     slack=0.0, passed=False, trials=1, std_err=0.0)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _undated(text):
    doc = _strict_json(text)
    assert "generated_at" in doc
    del doc["generated_at"]
    return doc


def test_json_report_shape_and_determinism():
    cfg = {"command": "demo", "dims": (64,), "trials": None, "master_seed": 1}
    rows = [row(True, claim="alpha", extra={"note": np.float64(1.5)}),
            row(False, negative=True, std_err=0.0)]
    doc = _undated(render_rows(rows, cfg, fmt="json"))
    assert doc == _undated(render_rows(rows, cfg, fmt="json"))
    assert doc["all_ok"] is True
    assert doc["version"]
    assert doc["experiment"] == "demo"
    assert doc["config"] == {"command": "demo", "dims": [64], "trials": None,
                             "master_seed": 1}
    assert doc["rows"][0]["extra"] == {"note": 1.5}
    assert "extra" not in doc["rows"][1]
    # headroom = bound + slack - statistic; negative on the failing control
    assert doc["rows"][0]["headroom"] == 0.2 + 0.01 - 0.1
    assert doc["rows"][1]["headroom"] < 0.0
    # headroom_se = headroom / std_err, null without a standard error
    assert doc["rows"][0]["headroom_se"] == (0.2 + 0.01 - 0.1) / 0.001
    assert doc["rows"][1]["headroom_se"] is None
    assert "headroom" not in render_rows(rows, fmt="csv")
    assert set(doc["env"]) == {"rotquant", "numpy", "scipy", "blas",
                               "cpu_count", "threads"}
    assert set(doc["env"]["blas"]) == {"name", "version"}
    assert (doc["env"]["numpy"], doc["env"]["cpu_count"]) == (np.__version__, os.cpu_count())
    assert doc["env"]["rotquant"] == doc["version"]
    assert doc["env"]["threads"] is None
    threaded = _undated(render_rows(rows, dict(cfg, threads=2), fmt="json"))
    assert threaded["env"]["threads"] == 2
    bare = _undated(render_rows(rows, fmt="json"))
    assert (bare["experiment"], bare["config"]) == ("demo", {})
    assert bare["env"]["threads"] is None


def test_non_finite_extras_serialize():
    doc = _undated(render_rows([row(True, extra={"v": math.inf})], fmt="json"))
    assert doc["rows"][0]["extra"]["v"] == "inf"


def test_non_finite_rows_serialize_as_strict_json():
    """A NaN or infinite statistic, and the headroom derived from it, are
    written as strings in the JSON and as the same floats in the CSV."""
    rows = [row(True, statistic=math.nan), row(True, statistic=-math.inf)]
    nan_row, inf_row = _undated(render_rows(rows, fmt="json"))["rows"]
    assert nan_row["statistic"] == nan_row["headroom"] == "nan"
    assert nan_row["headroom_se"] == "nan" and nan_row["pass"] is False
    assert (inf_row["statistic"], inf_row["headroom"],
            inf_row["headroom_se"]) == ("-inf", "inf", "inf")
    assert inf_row["pass"] is True
    table = list(csv.DictReader(io.StringIO(render_rows(rows, fmt="csv"))))
    assert [r["statistic"] for r in table] == ["nan", "-inf"]


def test_csv_report_schema_roundtrip():
    rows = [row(True, claim="alpha"), row(False, negative=True, d=128)]
    text = render_rows(rows, fmt="csv")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 3
    stat = lines[1].split(",")[CSV_FIELDS.index("statistic")]
    assert float(stat) == rows[0].statistic
    with pytest.raises(ValueError):
        render_rows(rows, fmt="yaml")


# --- determinism and parallelism ----------------------------------------------

def _fields(rows):
    return [(r.experiment, r.claim, r.d, r.statistic, r.bound, r.slack,
             r.passed, r.trials, r.std_err) for r in rows]


def test_scalar_convergence_thread_invariant():
    a = run_scalar_convergence((64,), draws=20_000, threads=1)
    b = run_scalar_convergence((64,), draws=20_000, threads=4)
    assert _fields(a) == _fields(b)
    assert len(a) == 2 and all(r.ok() for r in a)


def test_outlier_check_thread_invariant():
    a = run_bsq_outliers(dims=(256,), draws=40_000, threads=1)
    b = run_bsq_outliers(dims=(256,), draws=40_000, threads=3)
    assert _fields(a) == _fields(b)


def test_soundness_check_thread_invariant():
    a = run_adaptive_soundness(n_inputs=4, d=64, draws=30_000, threads=1)
    b = run_adaptive_soundness(n_inputs=4, d=64, draws=30_000, threads=4)
    assert _fields(a) == _fields(b)


def _chunked_results(threads: int = 1):
    x = gen_adversarial("two_spike", 256)
    spec = RotationSpec(256, 2, 21)
    codebook = train_gaussian_codebook(2, 4, train_seed=1, n_samples=1000)
    return {
        "drive": measure_drive_error(x, spec, "biased", 300, threads),
        # a last trial block that is not full
        "drive_unbiased": measure_drive_error(x, spec, "unbiased", 301, threads),
        "dme": dme_simulate(np.tile(x, (4, 1)), spec, "unbiased", 60, threads),
        "tv": verify_tv_transfer(x, BsqConfig(2, 0.01), 200, master_seed=3,
                                 threads=threads),
        "cov2": conditional_cov_trials(x, 0, 2, 2, 150, 4, threads),
        "cov3": conditional_cov_trials(x, 0, 2, 3, 150, 4, threads),
        "vq": verify_codebook_universality(
            x[:8], codebook, (64, 256), 300, master_seed=5, threads=threads),
        "rotated": map_rotated(unit_vector(x)[0], 2, 300, 6, np.ravel, threads),
    }


def test_results_do_not_depend_on_the_chunk_budget(monkeypatch):
    """Smaller trial chunks, run on two threads, give the default budget's
    serial results bit for bit, the DRIVE mean reconstruction (summed in
    fixed trial blocks) included."""
    assert core.TRIAL_CHUNK_ELEMS == 1 << 18
    ref = _chunked_results()
    for budget in (1 << 16, 1 << 14):
        monkeypatch.setattr(core, "TRIAL_CHUNK_ELEMS", budget)
        got = _chunked_results(threads=2)
        assert got["drive"] == ref["drive"]
        assert got["drive_unbiased"] == ref["drive_unbiased"]
        for key in ("dme", "tv", "rotated"):
            assert np.array_equal(got[key], ref[key])
        for key in ("cov2", "cov3"):
            assert all(np.array_equal(g, r) for g, r in zip(got[key], ref[key]))
        assert all(np.array_equal(g, r) for g, r in zip(got["vq"], ref["vq"]))


# Every runner that uses map_trials, with keyword arguments at sizes that
# split into several chunks at a budget of 2^12 elements.
RUNNERS = {
    "run_scalar_convergence": {"dims": (64,), "draws": 20_000},
    "run_drive_biased": {"d": 256, "trials": 300},
    "run_drive_unbiased": {"d": 256, "trials": 200, "bias_dims": (64, 256),
                           "bias_trials": (200, 300)},
    "run_dme": {"d": 256, "trials": 100},
    "run_bsq_outliers": {"dims": (256,), "draws": 20_000},
    "run_bsq_transfer": {"d": 256, "trials": 200},
    "run_vq_decorrelation": {"dims": (64, 256), "trials": 200},
    "run_vq_universality": {"dims": (64, 256), "trials": 200},
    "run_adaptive_soundness": {"n_inputs": 3, "d": 256, "draws": 20_000},
}


def _runner_rows(name, threads):
    return [r.to_row() for r in
            getattr(experiments, name)(**RUNNERS[name], threads=threads)]


@pytest.mark.parametrize("name", RUNNERS)
def test_runner_rows_do_not_depend_on_the_chunk_budget(name, monkeypatch):
    """Each runner's full rows are the same at the default budget and at
    budgets small enough to split its trials into several chunks, whether
    the chunks run on one thread or two."""
    assert core.TRIAL_CHUNK_ELEMS == 1 << 18
    ref = _runner_rows(name, threads=1)
    chunks = []
    run_ordered = core.run_ordered

    def counted(jobs, fn, threads=1):
        chunks.append(len(jobs))
        return run_ordered(jobs, fn, threads)

    monkeypatch.setattr(core, "run_ordered", counted)
    for budget in (1 << 16, 1 << 12):
        monkeypatch.setattr(core, "TRIAL_CHUNK_ELEMS", budget)
        for threads in (1, 2):
            chunks.clear()
            assert _runner_rows(name, threads) == ref
    assert max(chunks) >= 2


def test_band_and_trend_rows_report_their_margin():
    """A floor row's statistic is ``floor - value``, so its headroom is the
    margin above the floor; only floor rows carry ``floor``; a trend row's
    bound is the value it is compared against."""
    rows = (experiments.run_dme(d=256, trials=200)
            + experiments.run_drive_unbiased(
                d=256, trials=200, bias_dims=(64, 128, 256),
                bias_trials=(200, 300, 400)))
    floors = [r for r in rows if r.claim.endswith("-floor")]
    assert [r.claim for r in floors] == ["dme-ratio-floor",
                                         "unbiased-variance-floor"]
    for r in floors:
        value = r.extra["ratio" if r.experiment == "dme" else "variance_norm"]
        assert r.statistic == r.extra["floor"] - value
        assert r.headroom == value - r.extra["floor"] > 0.0
    assert not any("floor" in r.extra for r in rows
                   if r.claim.endswith("-upper"))
    trend = [r for r in rows if r.claim == "unbiased-bias-nonincreasing"]
    biases = rows[-1].extra["bias_sq_norm"]
    assert [r.bound for r in trend] == biases[:-1]
    assert [r.statistic for r in trend] == biases[1:]
    assert [r.extra["previous_d"] for r in trend] == [64, 128]


def _small_codebook():
    return train_gaussian_codebook(4, 8, train_seed=1, n_samples=2000)


# Every Monte Carlo estimator as ``run(x, trials)`` on a 16-dim input.
ESTIMATORS = {
    "measure_drive_error": lambda x, trials: measure_drive_error(
        x, RotationSpec(16, 2, 0), "biased", trials),
    "dme_simulate": lambda x, trials: dme_simulate(
        np.tile(x, (2, 1)), RotationSpec(16, 2, 0), "unbiased", trials),
    "verify_tv_transfer": lambda x, trials: verify_tv_transfer(
        x, BsqConfig(2, 0.01), trials),
    "conditional_cov_trials": lambda x, trials: conditional_cov_trials(
        x, 0, 2, 3, trials),
    "verify_codebook_universality": lambda x, trials: verify_codebook_universality(
        x, _small_codebook(), (16,), trials),
    # after unit_vector, as the runners call it
    "map_rotated": lambda x, trials: map_rotated(unit_vector(x)[0], 2, trials,
                                                 0, np.ravel),
}


@pytest.mark.parametrize("name", ESTIMATORS)
def test_estimators_share_the_trial_and_input_rules(name):
    """One contract for every estimator: fewer than two trials is an error,
    and so is a zero, non-finite or overflowing input."""
    run = ESTIMATORS[name]
    x = gen_adversarial("two_spike", 16)
    for trials in (-1, 0, 1):
        with pytest.raises(ValueError, match="need at least two trials"):
            run(x, trials)
    for bad in (np.zeros(16), np.where(x > 0, np.nan, 0.0),
                np.where(x > 0, np.inf, 0.0), x * 1e200):
        with pytest.raises(ValueError, match="input must be finite and non-zero"):
            run(bad, 100)


def _per_trial_outputs(name, result):
    """The outputs of an estimator's ``result`` that are indexed by trial."""
    if name in ("conditional_cov_trials", "verify_codebook_universality"):
        return list(result)
    return [result]


@pytest.mark.parametrize("name", [n for n in ESTIMATORS if n != "measure_drive_error"])
def test_estimators_return_samples_in_trial_order(name):
    """Every estimator but ``measure_drive_error`` returns its samples, per
    trial and in trial order: ``trials`` values per output (``trials * d``
    pooled coordinates), and, since seeds are indexed by trial, the samples
    of a shorter run are the first samples of a longer one."""
    run = ESTIMATORS[name]
    x = gen_adversarial("two_spike", 16)
    per_trial = 16 if name == "map_rotated" else 1
    short = _per_trial_outputs(name, run(x, 6))
    long = _per_trial_outputs(name, run(x, 9))
    assert len(short) == len(long) >= 1
    for s, lg in zip(short, long):
        assert s.shape == (6 * per_trial,) and lg.shape == (9 * per_trial,)
        assert np.array_equal(s, lg[: s.size])


def test_runs_are_reproducible():
    a = run_scalar_convergence((64,), draws=10_000, master_seed=99)
    b = run_scalar_convergence((64,), draws=10_000, master_seed=99)
    assert _fields(a) == _fields(b)
    c = run_scalar_convergence((64,), draws=10_000, master_seed=100)
    assert [r.statistic for r in a] != [r.statistic for r in c]
    # -1 would otherwise wrap to 2**64 - 1 and repeat that seed's rows
    with pytest.raises(ValueError, match="master seed"):
        run_scalar_convergence((64,), draws=10_000, master_seed=-1)


# --- command line -------------------------------------------------------------

def test_cli_encode_decode_reports_error(tmp_path, capsys):
    ref = tmp_path / "ref.bin"
    pay = tmp_path / "pay.bin"
    ref.write_bytes(serialize(gen_adversarial("two_spike", 64)))
    assert cli.main(["encode", "--gen", "two_spike", "--d", "64",
                     "--mode", "drive-biased", "--seed", "3",
                     "--out", str(pay)]) == 0
    assert pay.stat().st_size == 16 + 8 + 8
    capsys.readouterr()
    assert cli.main(["decode", "--in", str(pay), "--ref", str(ref)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "drive" and info["d"] == 64
    assert 0.0 <= info["vnmse"] <= 1.0
    assert info["expected_vnmse"] == 1.0 - 2.0 / math.pi
    assert cli.main(["encode", "--gen", "two_spike", "--d", "64",
                     "--mode", "drive-unbiased", "--seed", "3",
                     "--out", str(pay)]) == 0
    capsys.readouterr()
    assert cli.main(["decode", "--in", str(pay), "--ref", str(ref)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["mode"] == "unbiased"
    assert info["expected_vnmse"] == math.pi / 2.0 - 1.0
    assert cli.main(["decode", "--in", str(pay)]) == 0
    assert "expected_vnmse" not in json.loads(capsys.readouterr().out)


def test_cli_decode_reports_the_error_of_a_large_vector(tmp_path, capsys):
    """``decode --ref`` of a vector whose sum of squares overflows reports
    the vNMSE of the same vector scaled down by an exact power of two."""
    x = np.random.default_rng(0).standard_normal(1024)
    vnmse = []
    for scale in (1.0, 2.0 ** 664):  # 2^664 is about 1.2e200
        ref, pay = tmp_path / "ref.bin", tmp_path / "pay.bin"
        ref.write_bytes(serialize(x * scale))
        assert cli.main(["encode", "--in", str(ref), "--mode", "drive-biased",
                         "--seed", "3", "--out", str(pay)]) == 0
        capsys.readouterr()
        assert cli.main(["decode", "--in", str(pay), "--ref", str(ref)]) == 0
        vnmse.append(_strict_json(capsys.readouterr().out)["vnmse"])
    assert vnmse[1] == vnmse[0]
    assert 0.3 < vnmse[0] < 0.45


def test_cli_check_recommends_layers(capsys):
    assert cli.main(["check", "--gen", "flat", "--d", "1024"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert (doc["scalar_layers"], doc["vq_layers"]) == (1, 2)
    assert cli.main(["check", "--gen", "one_hot", "--d", "1024"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["scalar_layers"], doc["vq_layers"]) == (2, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [1e103, 1e200])
def test_cli_check_decides_on_overflowing_moments(value, tmp_path, capsys):
    """Moments that overflow are rescaled, with no warning: a flat input
    gets the flat input's decision at any scale."""
    vec = tmp_path / "vec.bin"
    vec.write_bytes(serialize(np.full(8, value)))
    assert cli.main(["check", "--in", str(vec)]) == 0
    doc = json.loads(capsys.readouterr().out)
    want = decide_layers(np.ones(8))
    assert (doc["scalar_layers"], doc["vq_layers"]) == (want.scalar_layers, want.vq_layers)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_cli_prints_no_non_finite_json(tmp_path, capsys):
    vec = tmp_path / "vec.bin"
    vec.write_bytes(serialize(np.full(8, 1e308)))  # the first FWHT stage overflows
    assert cli.main(["transform", "--in", str(vec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not JSON compliant" in captured.err


def test_cli_transform_prints_a_finite_norm(tmp_path, capsys):
    """A finite rotated vector whose sum of squares overflows still has its
    true norm printed."""
    vec = tmp_path / "vec.bin"
    vec.write_bytes(serialize(np.full(8, 1e200)))
    assert cli.main(["transform", "--in", str(vec)]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["norm"] == pytest.approx(math.sqrt(8) * 1e200, rel=1e-15)


@pytest.mark.parametrize("flag", ["--eta3", "--eta-inf"])
def test_cli_check_rejects_bad_thresholds(flag, capsys):
    assert cli.main(["check", "--gen", "flat", "--d", "64", flag, "nan"]) == 2
    assert "must be finite and positive" in capsys.readouterr().err


def test_cli_transform_roundtrip(tmp_path, capsys):
    fwd = tmp_path / "fwd.bin"
    assert cli.main(["transform", "--gen", "one_hot", "--d", "8",
                     "--layers", "2", "--seed", "11", "--out", str(fwd)]) == 0
    capsys.readouterr()
    assert cli.main(["transform", "--in", str(fwd), "--inverse",
                     "--layers", "2", "--seed", "11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    head = doc["head"]
    assert abs(head[0] - 1.0) <= 1e-12
    assert max(abs(v) for v in head[1:]) <= 1e-12
    assert doc["inverse"] is True


def test_cli_verify_scalar_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = cli.main(["verify-scalar", "--dims", "64", "--draws", "20000",
                     "--format", "csv", "--out", str(out)])
    assert code == 0
    assert "healthy" in capsys.readouterr().out
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 3


def test_cli_json_config_echoes_the_parsed_flags(capsys):
    assert cli.main(["dme", "--d", "64", "--clients", "1,4",
                     "--trials", "20", "--master-seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "dme"
    assert doc["config"] == {"command": "dme", "d": 64, "clients": [1, 4],
                             "trials": 20, "master_seed": 3, "threads": 1}
    assert [r["extra"]["n_clients"] for r in doc["rows"]] == [1, 4]
    assert doc["env"]["threads"] == 1

    cli.main(["verify-scalar", "--dims", "64", "--draws", "10000",
              "--threads", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["threads"] == doc["env"]["threads"] == 2

    code = cli.main(["verify-vq", "--dims", "16,32", "--trials", "200",
                     "--cov-trials", "100", "--skip-negative"])
    doc = json.loads(capsys.readouterr().out)
    assert code == (0 if doc["all_ok"] else 1)
    assert doc["experiment"] == "verify-vq"
    assert doc["config"] == {"command": "verify-vq", "dims": [16, 32],
                             "trials": 200, "cov_trials": 100,
                             "skip_negative": True,
                             "master_seed": DEFAULT_MASTER_SEED, "threads": 1}
    assert not any(r["negative_control"] for r in doc["rows"])


@pytest.mark.parametrize("argv", [
    ["verify-scalar", "--dims", "64", "--draws", "10000"],
    ["verify-bsq", "--dims", "64", "--draws", "1000", "--transfer-d", "64",
     "--trials", "20"],
    ["verify-vq", "--dims", "16", "--trials", "50", "--cov-trials", "20",
     "--skip-negative"],
    ["dme", "--d", "64", "--clients", "1,16", "--trials", "20"],
    ["verify-drive", "--d", "64", "--trials", "20"],
])
def test_cli_report_json_is_strict(argv, capsys):
    code = cli.main(argv)
    doc = _undated(capsys.readouterr().out)
    assert doc["experiment"] == argv[0]
    assert doc["rows"] and code == (0 if doc["all_ok"] else 1)
    _assert_timings(doc, [runner.__name__ for command, runner in experiments.RUNNERS
                          if command == argv[0]])


def _assert_timings(doc, names):
    """The JSON ``timings`` block holds a finite, non-negative wall time for
    each runner that ran, and for no other."""
    assert sorted(doc["timings"]) == sorted(names)
    assert all(isinstance(s, float) and 0.0 <= s < math.inf
               for s in doc["timings"].values())


def test_report_json_times_every_runner_and_csv_does_not(monkeypatch, capsys):
    _stand_in_runners(monkeypatch)
    names = [runner.__name__ for _, runner in experiments.RUNNERS]
    assert cli.main(["report"]) == 0
    _assert_timings(_undated(capsys.readouterr().out), names)
    assert cli.main(["report", "--format", "csv"]) == 0
    untimed = render_rows([_stand_in_row(name) for name in names], fmt="csv")
    assert capsys.readouterr().out == untimed


def test_verify_vq_measures_the_covariance_once_per_dimension(monkeypatch,
                                                             capsys):
    passes = []
    measure = vq.conditional_cov_trials

    def counted(x, i, j, layers, trials, master_seed=0, threads=1):
        passes.append(trials)
        return measure(x, i, j, layers, trials, master_seed, threads)

    for module in (vq, experiments):
        monkeypatch.setattr(module, "conditional_cov_trials", counted)
    cli.main(["verify-vq", "--dims", "16,32", "--trials", "200",
              "--cov-trials", "100", "--skip-negative"])
    capsys.readouterr()
    assert passes == [100, 100]


@pytest.mark.parametrize("dims, message", [
    ((), "need at least one dimension"),
    ((256, 1000), "power of two"),
    ((2,), "multiple of the block size"),
])
def test_vq_universality_checks_dims_before_any_trial(dims, message, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before dims were checked")

    monkeypatch.setattr(vq, "map_rotated", no_trial)
    monkeypatch.setattr(vq, "map_trials", no_trial)
    monkeypatch.setattr(experiments, "gaussian_distortions", no_trial)
    with pytest.raises(ValueError, match=message):
        experiments.run_vq_universality(dims=dims, trials=10)


def test_verify_drive_d_reaches_the_bias_sweep(capsys):
    """``--d`` sets the bias sweep too: d/64, d/16, d/4 and d without those
    below 16, the (1, 2, 4, 6) trial multipliers aligned from the largest;
    fewer than two dimensions left raises naming ``d``."""
    assert cli.main(["verify-drive", "--d", "64", "--trials", "20"]) in (0, 1)
    doc = _undated(capsys.readouterr().out)
    assert doc["rows"] and max(r["d"] for r in doc["rows"]) == 64
    slope = next(r for r in doc["rows"] if r["claim"] == "unbiased-bias-slope")
    assert slope["extra"]["dims"] == [16, 64] and slope["trials"] == (4 + 6) * 20
    rows = experiments.run_drive_unbiased(d=256, trials=20)
    assert rows[-1].extra["dims"] == [16, 64, 256] and rows[-1].trials == (2 + 4 + 6) * 20
    assert [r.trials for r in rows if r.claim == "unbiased-bias-nonincreasing"] == [80, 120]
    for d in (32, 16):
        with pytest.raises(ValueError, match=f"d = {d}"):
            experiments.run_drive_unbiased(d=d, trials=20)
    assert cli.main(["verify-drive", "--d", "32", "--trials", "20"]) == 2
    assert "d = 32" in capsys.readouterr().err
    with pytest.raises(ValueError, match="one bias trial count per bias dimension"):
        experiments.run_drive_unbiased(d=64, trials=20, bias_dims=(16, 32, 64),
                                       bias_trials=(20, 40))


def test_no_runner_trains_a_codebook(monkeypatch, tmp_path, capsys):
    """The universality runner and ``verify-vq`` use the shipped constants,
    and ``--train-seed`` is gone, so argparse refuses it.  The ``--out``
    summary counts the rows within 2 standard errors of their bound."""
    trainings = []
    train = vq.train_gaussian_codebook

    def spy(*args, **kwargs):
        trainings.append(args)
        return train(*args, **kwargs)

    for module in (vq, experiments):
        monkeypatch.setattr(module, "train_gaussian_codebook", spy, raising=False)
    experiments.run_vq_universality(dims=(16, 32), trials=30)
    out = tmp_path / "vq.json"
    code = cli.main(["verify-vq", "--dims", "16,32", "--trials", "30",
                     "--cov-trials", "20", "--skip-negative", "--out", str(out)])
    assert trainings == []
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert code == (0 if doc["all_ok"] else 1)
    close = sum(r["headroom_se"] is not None and abs(r["headroom_se"]) < 2
                for r in doc["rows"])
    assert close >= 1  # the final gap at d = 32 is decided by sampling noise
    assert capsys.readouterr().out.endswith(
        f"; {close} within 2 standard errors of the bound\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-vq", "--train-seed", "1"])
    assert exc.value.code == 2


def _stand_in_runners(monkeypatch):
    """Replace the runner table's functions with stand-ins that keep each
    runner's name and signature, record the arguments it is called with and
    return one row named after it."""
    calls = []

    def stand_in(runner):
        @functools.wraps(runner)
        def run(*args, **kwargs):
            arguments = inspect.signature(runner).bind(*args, **kwargs).arguments
            calls.append((runner.__name__, dict(arguments)))
            return [_stand_in_row(runner.__name__)]
        return run

    monkeypatch.setattr(experiments, "RUNNERS", tuple(
        (command, stand_in(runner)) for command, runner in experiments.RUNNERS))
    return calls


def _stand_in_row(name):
    return VerifyReport(experiment=name, d=1, statistic=0.0, bound=0.0, slack=0.0,
                        trials=1, std_err=0.0)


def _seeded(name, arguments, master_seed, threads):
    """``arguments`` plus the master seed and thread count, wherever the
    runner ``name`` takes them."""
    parameters = inspect.signature(getattr(experiments, name)).parameters
    extra = {"master_seed": master_seed, "threads": threads}
    return {**arguments, **{k: v for k, v in extra.items() if k in parameters}}


def test_runner_table_holds_every_runner_once():
    """Every runner once, in the report's row order, under its subcommand."""
    table = [(command, runner.__name__)
             for command, runner in experiments.RUNNERS]
    assert table == [
        ("verify-scalar", "run_scalar_convergence"),
        ("verify-drive", "run_drive_biased"),
        ("verify-drive", "run_drive_unbiased"),
        ("dme", "run_dme"),
        ("verify-bsq", "run_bsq_outliers"),
        ("verify-bsq", "run_bsq_transfer"),
        ("verify-vq", "run_lemma_bottleneck"),
        ("verify-vq", "run_vq_decorrelation"),
        ("verify-vq", "run_vq_universality"),
        ("report", "run_adaptive_decisions"),
        ("report", "run_adaptive_soundness"),
        ("report", "run_cd_expansion"),
    ]
    assert sorted(name for _, name in table) == sorted(
        n for n in experiments.__all__ if n.startswith("run_"))
    assert all(runner is getattr(experiments, runner.__name__)
               for _, runner in experiments.RUNNERS)


def test_report_runs_the_whole_table_in_order(monkeypatch, capsys):
    """``report`` calls every runner once, in table order, with only the
    master seed and thread count, wherever the runner takes them."""
    calls = _stand_in_runners(monkeypatch)
    assert cli.main(["report", "--format", "csv", "--master-seed", "5",
                     "--threads", "3"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    order = [runner.__name__ for _, runner in experiments.RUNNERS]
    assert [r["experiment"] for r in rows] == order
    assert calls == [(name, _seeded(name, {}, 5, 3)) for name in order]


# Each verify-*/dme subcommand with a value other than its default for every
# flag it has, and the calls those flags must make, in table order.
ROUTES = {
    "verify-scalar": (
        ["--gen", "flat", "--dims", "32,64", "--draws", "500", "--layers", "3"],
        [("run_scalar_convergence", {"kind": "flat", "dims": (32, 64),
                                     "draws": 500, "layers": 3})]),
    "verify-drive": (
        ["--d", "64", "--trials", "30"],
        [("run_drive_biased", {"d": 64, "trials": 30}),
         ("run_drive_unbiased", {"d": 64, "trials": 30})]),
    "dme": (
        ["--d", "64", "--clients", "2,8", "--trials", "30"],
        [("run_dme", {"d": 64, "n_clients": (2, 8), "trials": 30})]),
    "verify-bsq": (
        ["--dims", "32,64", "--draws", "500", "--transfer-d", "128",
         "--bits", "3", "--tail-mass", "0.05", "--trials", "30"],
        [("run_bsq_outliers", {"dims": (32, 64), "draws": 500}),
         ("run_bsq_transfer", {"d": 128, "bits": 3, "tail": 0.05,
                               "trials": 30})]),
    "verify-vq": (
        ["--dims", "16,32", "--trials", "30", "--cov-trials", "40",
         "--skip-negative"],
        [("run_lemma_bottleneck", {}),
         ("run_vq_decorrelation", {"dims": (16, 32), "trials": 40}),
         ("run_vq_universality", {"dims": (16, 32), "trials": 30,
                                  "include_negative": False})]),
}


@pytest.mark.parametrize("command", ROUTES)
def test_each_subcommand_runs_its_group_with_every_flag(command, monkeypatch,
                                                        capsys):
    """Each flag value reaches the parameter it sets and no other: exactly
    the subcommand's group of the table runs, in table order."""
    flags, expected = ROUTES[command]
    calls = _stand_in_runners(monkeypatch)
    assert cli.main([command, *flags, "--master-seed", "5",
                     "--threads", "3"]) == 0
    config = _strict_json(capsys.readouterr().out)["config"]
    # the table above gives every flag of the subcommand
    given = {f[2:].replace("-", "_") for f in flags if f.startswith("--")}
    assert set(config) - {"command", "master_seed", "threads"} == given
    assert [name for name, _ in calls] == [
        runner.__name__ for c, runner in experiments.RUNNERS if c == command]
    assert calls == [(name, _seeded(name, arguments, 5, 3))
                     for name, arguments in expected]


@pytest.mark.parametrize("command", ROUTES)
def test_flag_defaults_are_the_runner_defaults(command, monkeypatch, capsys):
    """A bare subcommand hands each runner of its group the runner's own
    defaults, so it runs at the same full-scale settings as ``report``."""
    calls = _stand_in_runners(monkeypatch)
    assert cli.main([command, "--format", "csv"]) == 0
    capsys.readouterr()
    _, expected = ROUTES[command]
    assert [name for name, _ in calls] == [name for name, _ in expected]
    for (name, arguments), (_, routed) in zip(calls, expected):
        assert set(arguments) == set(_seeded(name, routed, None, None)), name
        parameters = inspect.signature(getattr(experiments, name)).parameters
        for key, value in arguments.items():
            assert value == parameters[key].default, (name, key)


def test_cli_input_validation(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["check", "--gen", "flat", "--in", "whatever.bin"])
    with pytest.raises(SystemExit):
        cli.main(["check"])
    vec = tmp_path / "vec.bin"
    vec.write_bytes(serialize(np.ones(4)))
    with pytest.raises(SystemExit):
        cli.main(["decode", "--in", str(vec)])
    with pytest.raises(SystemExit):
        cli.main(["verify-scalar", "--dims", "a,b"])
    for argv in (["dme", "--d", "64", "--clients", "-3"],
                 ["verify-bsq", "--dims", "64,0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify-bsq", "--dims", "64", "--draws", "1000", "--transfer-d", "64",
      "--trials", "0"], "need at least two trials"),
    (["verify-vq", "--dims", "16", "--cov-trials", "1"], "need at least two trials"),
    (["verify-vq", "--dims", "16", "--cov-trials", "0"], "need at least two trials"),
    (["verify-bsq", "--dims", "64", "--draws", "1000", "--transfer-d", "64",
      "--trials", "1"], "need at least two trials"),
    (["verify-bsq", "--dims", "64", "--draws", "0", "--transfer-d", "64"],
     "need at least one draw"),
    (["verify-scalar", "--dims", "64", "--draws", "0"], "need at least one draw"),
    (["verify-scalar", "--dims", "64", "--draws", "-5"], "need at least one draw"),
])
def test_cli_rejects_degenerate_trial_counts(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["verify-scalar", "verify-drive",
                                     "verify-bsq", "verify-vq", "dme", "report"])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_cli_threads_must_be_a_positive_integer(command, threads, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_cli_reports_io_errors(capsys):
    assert cli.main(["decode", "--in", "/nonexistent/payload.bin"]) == 2
    assert "payload.bin" in capsys.readouterr().err


def test_cli_decode_writes_reconstruction(tmp_path, capsys):
    pay = tmp_path / "pay.bin"
    rec = tmp_path / "rec.bin"
    cli.main(["encode", "--gen", "flat", "--d", "32", "--mode", "bsq",
              "--bits", "3", "--tail-mass", "0.05", "--out", str(pay)])
    capsys.readouterr()
    assert cli.main(["decode", "--in", str(pay), "--out", str(rec)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "bsq" and info["bits"] == 3
    back = deserialize(rec.read_bytes())
    assert isinstance(back, np.ndarray) and back.size == 32


# --- benchmark contract -------------------------------------------------------

def _bench_module(name: str):
    """``bench/<name>.py``, run from its source text so that nothing is
    written next to it (no bytecode cache)."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


def test_bench_harness_kwargs_bind_to_the_runners():
    """Every runner call of the benchmark's harness pass still binds, with
    ``threads`` added where the runner takes it, as the benchmark does."""
    runs = _bench_module("workloads").McHarness.RUNS
    assert runs
    for name, kwargs in runs:
        signature = inspect.signature(getattr(experiments, name))
        kw = dict(kwargs, master_seed=1)
        if "threads" in signature.parameters:
            kw["threads"] = 2
        signature.bind(**kw)


def test_bench_tracer_targets_resolve():
    """Every function the benchmark's tracer wraps still exists under its
    traced name: a module attribute, or a method in its class's namespace."""
    tracer = _bench_module("tracer")
    assert tracer.TARGETS
    for module, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            owner, path = vars(owner)[cls_name], attr
        assert path in vars(owner), f"{module}.{path}"
        target = vars(owner)[path]
        assert callable(getattr(target, "__func__", target)), f"{module}.{path}"
