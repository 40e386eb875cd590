import json
import math
import os

import numpy as np
import pytest

from rotquant import cli, core
from rotquant.bsq import BsqConfig, verify_tv_transfer
from rotquant.codec import deserialize, serialize
from rotquant.core import RotationSpec
from rotquant.drive import dme_simulate, measure_drive_error
from rotquant.experiments import (
    DEFAULT_MASTER_SEED,
    _pooled_coordinates,
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


def _undated(text):
    doc = json.loads(text)
    assert "generated_at" in doc
    del doc["generated_at"]
    return doc


def test_json_report_shape_and_determinism():
    cfg = {"command": "demo", "dims": (64,), "trials": None, "master_seed": 1}
    rows = [row(True, claim="alpha", extra={"note": np.float64(1.5)}),
            row(False, negative=True)]
    doc = _undated(render_rows(rows, cfg, fmt="json"))
    assert doc == _undated(render_rows(rows, cfg, fmt="json"))
    assert doc["all_ok"] is True
    assert doc["version"]
    assert doc["experiment"] == "demo"
    assert doc["config"] == {"command": "demo", "dims": [64], "trials": None,
                             "master_seed": 1}
    assert doc["rows"][0]["extra"] == {"note": 1.5}
    assert "extra" not in doc["rows"][1]
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
    a = run_bsq_outliers(dims=(256,), tails=(0.1,), draws=40_000, threads=1)
    b = run_bsq_outliers(dims=(256,), tails=(0.1,), draws=40_000, threads=3)
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
        "drive": measure_drive_error(x, spec, "biased", 300),
        "dme": dme_simulate(np.tile(x, (4, 1)), spec, "unbiased", 60).per_trial,
        "tv": verify_tv_transfer(x, BsqConfig(2, 0.01), 200,
                                 master_seed=3).to_row(),
        "cov2": conditional_cov_trials(x, 0, 2, 2, 150, master_seed=4),
        "cov3": conditional_cov_trials(x, 0, 2, 3, 150, master_seed=4),
        "vq": verify_codebook_universality(
            x[:8], codebook, (64, 256), 300, master_seed=5,
            gauss_trials=2000, cov_trials=100),
        "pooled": _pooled_coordinates(x, 2, 300, 6, threads=threads),
    }


def test_results_do_not_depend_on_the_chunk_budget(monkeypatch):
    """Many small trial chunks give the default budget's per-trial values;
    only the running mean reconstruction of DRIVE moves, in its last bits."""
    ref = _chunked_results()
    monkeypatch.setattr(core, "TRIAL_CHUNK_ELEMS", 1 << 14)
    got = _chunked_results(threads=2)
    for field in ("vnmse", "std_err", "eq1_vnmse"):
        assert getattr(got["drive"], field) == getattr(ref["drive"], field)
    for field in ("bias_sq_norm", "variance_norm"):
        assert math.isclose(getattr(got["drive"], field),
                            getattr(ref["drive"], field), rel_tol=1e-12)
    assert np.array_equal(got["dme"], ref["dme"])
    assert got["tv"] == ref["tv"]
    for key in ("cov2", "cov3"):
        assert all(np.array_equal(g, r) for g, r in zip(got[key], ref[key]))
    assert got["vq"] == ref["vq"]
    assert np.array_equal(got["pooled"], ref["pooled"])


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


def test_cli_check_recommends_layers(capsys):
    assert cli.main(["check", "--gen", "flat", "--d", "1024"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["scalar_layers"], doc["vq_layers"]) == (1, 2)
    assert cli.main(["check", "--gen", "one_hot", "--d", "1024"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["scalar_layers"], doc["vq_layers"]) == (2, 3)


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
                             "trials": 20, "master_seed": 3}
    assert [r["extra"]["n_clients"] for r in doc["rows"]] == [1, 4]
    assert doc["env"]["threads"] is None  # dme has no --threads

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
                             "train_seed": 2024, "skip_negative": True,
                             "master_seed": DEFAULT_MASTER_SEED}
    assert not any(r["negative_control"] for r in doc["rows"])


def test_cli_input_validation(tmp_path):
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
