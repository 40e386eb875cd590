"""Experiment runners: deterministic Monte Carlo checks of every bound.

Each runner measures one family of claims on adversarial inputs and returns
:class:`~rotquant.reporting.VerifyReport` rows: a statistic, the closed-form
bound, and an explicit sampling slack (DKW band or four standard errors).
Two row shapes are written once each.  A two-sided band (:func:`_band_rows`)
is an ``<claim>-upper`` row (``value <= hi``) and an ``<claim>-floor`` row
whose ``statistic`` is ``floor - value`` against bound 0, so a passing floor
row has a negative statistic and ``headroom = value - floor``.  A decay over
``d`` (:func:`_trend_rows`) is one row per consecutive pair of dimensions:
``statistic`` is the later value, ``bound`` the earlier, ``std_err`` the
later standard error and ``slack`` ``k`` times the two errors in quadrature.

A runner takes only what its callers vary: mostly dimensions, trial and
draw counts, the master seed and ``threads``.  Runners that pool coordinate
draws are sized by ``draws`` (at least 1), rounded up to whole rotations
and to at least two.  Settings that no caller varies (outlier tail masses,
covariance pairs, the codebook shape, the calibrated bounds) are fixed in
the runner, and each runner's defaults are its full-scale settings.
:data:`RUNNERS` lists every runner in report row order under the
subcommand that runs it: ``rotquant report`` runs the whole table and each
``verify-*``/``dme`` subcommand its own group, at the same defaults.  Each
quantity is measured by one runner: the final-layer covariance only by
:func:`run_vq_decorrelation`, the codebook distortion gap only by
:func:`run_vq_universality`.

The Monte Carlo estimators in ``bsq``, ``drive`` and ``vq`` return per-trial
samples in trial order; only this module reduces them and builds
:class:`~rotquant.reporting.VerifyReport` rows.  ``drive.measure_drive_error``
alone returns a summary: its bias and variance need the trial-mean
reconstruction, which no runner sees.

All randomness is derived from a master seed by counter.  Every estimator
samples the rotated rows through one kernel,
:func:`rotquant.core.map_trials`, which runs trials in chunks of whole
trials reduced in trial order; the pooled draws here,
``bsq.verify_tv_transfer`` and ``vq.verify_codebook_universality`` take its
rows scaled to ``U = sqrt(d) R xu`` (:func:`rotquant.core.map_rotated`).
The estimators share three rules from :mod:`rotquant.core`: ``map_trials``
needs at least two trials, :func:`~rotquant.core.mean_se` reduces per-trial
samples to a mean and standard error, and :func:`~rotquant.core.unit_vector`
normalizes an input and rejects a zero or non-finite one.  Results are
bit-identical across reruns, thread counts and chunk sizes: sums over trials
run in fixed blocks of :data:`~rotquant.core.TRIAL_BLOCK` trials that no
chunk splits.
"""

from __future__ import annotations

import math

import numpy as np

from .adaptive import decide_layers, default_eta3
from .bsq import BsqConfig, expected_error_gaussian, threshold_for_p, tv_of_error_function, verify_tv_transfer
from .core import RotationSpec, _input_array, apply_rotation, fwht, layer_signs, map_rotated, mean_se, run_ordered, sum_sq, unit_vector
from .drive import LIMIT_VNMSE, cd_values, dme_simulate, measure_drive_error
from .generators import gen_adversarial
from .metrics import (
    BERRY_ESSEEN_C,
    CUBE_RATIO_C,
    KOLMOGOROV_2LAYER_C,
    OUTLIER_2LAYER_C,
    W1_TRANSPORT_C,
    EmpiricalSample,
    conditional_cov_exact,
    empirical_kolmogorov,
    empirical_w1,
)
from .reporting import VerifyReport
from .rng import _input_int, derive_seed, derive_seeds
from .vq import (
    conditional_cov_trials,
    gaussian_distortions,
    stein_diagnostic_constant,
    train_gaussian_codebook,
    universality_dims,
    verify_codebook_universality,
)

__all__ = [
    "DEFAULT_MASTER_SEED",
    "dkw_slack",
    "run_scalar_convergence",
    "run_drive_biased",
    "run_drive_unbiased",
    "run_dme",
    "run_bsq_outliers",
    "run_bsq_transfer",
    "run_lemma_bottleneck",
    "run_vq_decorrelation",
    "run_vq_universality",
    "run_adaptive_decisions",
    "run_adaptive_soundness",
    "run_cd_expansion",
    "RUNNERS",
]

DEFAULT_MASTER_SEED = 12345


def dkw_slack(n: int) -> float:
    """Two-sided DKW band half-width at 95% confidence (``alpha = 0.05``)."""
    return math.sqrt(math.log(2.0 / 0.05) / (2.0 * _input_int(n, "n", 1)))


def _trials_for(draws: int, d: int) -> int:
    """Whole rotations of dimension ``d`` that reach ``draws`` pooled
    coordinates, and at least two; ``draws`` must be an integer of at least 1."""
    draws = _input_int(draws, "draws", 1, need="need at least one draw")
    return max(2, -(-draws // d))


def _band_rows(claim: str, key: str, value: float, floor: float, upper: float,
               context=(), **fields) -> list[VerifyReport]:
    """``<claim>-upper`` (``value <= upper``) and ``<claim>-floor``
    (``floor - value <= 0``), both exact.  ``extra`` holds ``context`` and
    ``value`` under ``key``; only the floor row adds ``floor``.  ``fields``
    are the remaining :class:`VerifyReport` fields (experiment, d, trials,
    std_err)."""
    extra = {**dict(context), key: value}
    return [
        VerifyReport(statistic=value, bound=upper, slack=0.0,
                     claim=f"{claim}-upper", slack_kind="exact", extra=extra,
                     **fields),
        VerifyReport(statistic=floor - value, bound=0.0, slack=0.0,
                     claim=f"{claim}-floor", slack_kind="exact",
                     extra={**extra, "floor": floor}, **fields),
    ]


def _trend_rows(claim: str, points, k: float, context=(),
                **fields) -> list[VerifyReport]:
    """One row per consecutive pair of ``(d, value, std_err, trials)``
    points: the later value against the earlier as bound, with slack
    ``k * hypot(se_prev, se_cur)`` (kind ``exact`` when ``k`` is 0)."""
    slack_kind = f"{k:g}sigma" if k else "exact"
    return [
        VerifyReport(d=d, statistic=value, bound=prev,
                     slack=k * math.hypot(se_prev, se), trials=trials,
                     std_err=se, claim=claim, slack_kind=slack_kind,
                     extra={"previous_d": d_prev, **dict(context)}, **fields)
        for (d_prev, prev, se_prev, _), (d, value, se, trials)
        in zip(points, points[1:])
    ]


def run_scalar_convergence(dims=(256, 1024, 4096), trials: int | None = None,
                           draws: int = 1_000_000, kind: str = "two_spike",
                           layers: int = 2, master_seed: int = DEFAULT_MASTER_SEED,
                           threads: int = 1) -> list[VerifyReport]:
    """Kolmogorov and 1-Wasserstein convergence of rotated coordinates.

    Per dimension, pools enough rotations to reach ``draws`` coordinate
    draws (or exactly ``trials`` rotations when given) and checks the
    empirical distances to N(0,1) against ``1.28/sqrt(d)`` (slack: DKW band)
    and ``3 C3/sqrt(d)`` (slack: 0.01 quantile-coupling allowance).
    """
    rows = []
    for d in dims:
        n_trials = trials if trials is not None else _trials_for(draws, d)
        xu, _ = unit_vector(gen_adversarial(kind, d))
        sample = EmpiricalSample.from_values(
            map_rotated(xu, layers, n_trials, master_seed, np.ravel, threads))
        n = sample.n
        dk = empirical_kolmogorov(sample)
        dk_bound = KOLMOGOROV_2LAYER_C / math.sqrt(d)
        dk_slack = dkw_slack(n)
        rows.append(VerifyReport(
            experiment="scalar-convergence", d=d, statistic=dk,
            bound=dk_bound, slack=dk_slack,
            trials=n_trials,
            std_err=0.0, claim="kolmogorov-convergence",
            slack_kind="dkw", extra={"kind": kind, "layers": layers, "n": n},
        ))
        w1 = empirical_w1(sample)
        w1_bound = W1_TRANSPORT_C * CUBE_RATIO_C / math.sqrt(d)
        w1_slack = 0.01
        rows.append(VerifyReport(
            experiment="scalar-convergence", d=d, statistic=w1,
            bound=w1_bound, slack=w1_slack,
            trials=n_trials,
            std_err=0.0, claim="wasserstein-convergence",
            slack_kind="quantile-coupling",
            extra={"kind": kind, "layers": layers, "n": n},
        ))
    return rows


def run_drive_biased(d: int = 4096, trials: int = 10_000,
                     master_seed: int = DEFAULT_MASTER_SEED,
                     threads: int = 1) -> list[VerifyReport]:
    """Biased sign-quantizer error on the two-spike and one-hot inputs: mean
    vNMSE stays under ``1 - 2/pi + 10/sqrt(d)``, above the 0.30 sanity
    floor, and agrees with the l1-only error identity."""
    upper = LIMIT_VNMSE["biased"] + 10.0 / math.sqrt(d)
    floor = 0.30
    rows = []
    for kind in ("two_spike", "one_hot"):
        rep = measure_drive_error(gen_adversarial(kind, d),
                                  RotationSpec(d, 2, master_seed),
                                  "biased", trials, threads)
        base = {"kind": kind, "vnmse": rep.vnmse}
        rows += _band_rows("sign-quantizer-vnmse", "vnmse", rep.vnmse, floor,
                           upper, {"kind": kind}, experiment="drive-biased",
                           d=d, trials=trials, std_err=rep.std_err)
        gap = abs(rep.vnmse - rep.eq1_vnmse)
        rows.append(VerifyReport(
            experiment="drive-biased", d=d, statistic=gap, bound=0.0,
            slack=4.0 * rep.std_err,
            trials=trials, std_err=rep.std_err,
            claim="sign-quantizer-l1-identity", slack_kind="4sigma",
            extra={**base, "identity_vnmse": rep.eq1_vnmse},
        ))
    return rows


def run_drive_unbiased(d: int = 4096, trials: int = 10_000,
                       bias_dims=(64, 256, 1024, 4096),
                       bias_trials=None,
                       master_seed: int = DEFAULT_MASTER_SEED,
                       threads: int = 1) -> list[VerifyReport]:
    """Unbiased sign-quantizer: variance share in the ``pi/2 - 1`` band and
    squared bias decaying with dimension.

    The plug-in squared-bias estimator carries a sampling floor of
    ``variance/trials``, so the trial counts grow with dimension to keep the
    floor from masking the decay being measured: ``bias_trials`` defaults to
    ``(1, 2, 4, 6) * trials`` (10,000 to 60,000 at the default ``trials``).
    """
    if bias_trials is None:
        bias_trials = tuple(m * trials for m in (1, 2, 4, 6))
    rep = measure_drive_error(gen_adversarial("one_hot", d),
                              RotationSpec(d, 2, master_seed),
                              "unbiased", trials, threads)
    rows = _band_rows("unbiased-variance", "variance_norm", rep.variance_norm,
                      0.52, 0.62, experiment="drive-unbiased", d=d,
                      trials=trials, std_err=rep.std_err)

    biases = [measure_drive_error(gen_adversarial("one_hot", dm),
                                  RotationSpec(dm, 2, master_seed),
                                  "unbiased", tm, threads).bias_sq_norm
              for dm, tm in zip(bias_dims, bias_trials)]
    rows += _trend_rows("unbiased-bias-nonincreasing",
                        [(dm, b, 0.0, tm) for dm, b, tm
                         in zip(bias_dims, biases, bias_trials)],
                        0.0, experiment="drive-unbiased")
    # least-squares slope of log bias on log d, in closed form
    u = np.log(_input_array(bias_dims, "bias_dims"))
    v = np.log(np.maximum(biases, 1e-300))
    u -= u.mean()
    slope = float(np.add.reduce(u * (v - v.mean())) / sum_sq(u))
    rows.append(VerifyReport(
        experiment="drive-unbiased", d=bias_dims[-1], statistic=slope,
        bound=-0.3, slack=0.0,
        trials=sum(bias_trials), std_err=0.0, claim="unbiased-bias-slope",
        slack_kind="exact",
        extra={"bias_sq_norm": list(map(float, biases)),
               "dims": list(bias_dims)},
    ))
    return rows


def run_dme(d: int = 4096, n_clients=(1, 4, 16), trials: int = 1000,
            master_seed: int = DEFAULT_MASTER_SEED,
            threads: int = 1) -> list[VerifyReport]:
    """Distributed mean estimation with identical one-hot clients: per-round
    NMSE under ``(pi/2 - 1)/N + 0.05`` and the 1-vs-16 client ratio near the
    ideal factor 16."""
    n_clients = [_input_int(n, "n_clients", 1) for n in n_clients]
    x = gen_adversarial("one_hot", d)
    rows = []
    nmse_by_n = {}
    for n in n_clients:
        nmse, std_err = mean_se(dme_simulate(
            np.tile(x, (n, 1)), RotationSpec(d, 2, master_seed), "unbiased",
            trials, threads))
        nmse_by_n[n] = nmse
        bound = LIMIT_VNMSE["unbiased"] / n + 0.05
        rows.append(VerifyReport(
            experiment="dme", d=d, statistic=nmse, bound=bound, slack=0.0,
            trials=trials,
            std_err=std_err, claim="dme-nmse", slack_kind="exact",
            extra={"n_clients": n},
        ))
    if 1 in nmse_by_n and 16 in nmse_by_n:
        rows += _band_rows("dme-ratio", "ratio", nmse_by_n[1] / nmse_by_n[16],
                           12.0, 20.0,
                           {"nmse_1": nmse_by_n[1], "nmse_16": nmse_by_n[16]},
                           experiment="dme", d=d, trials=trials, std_err=0.0)
    return rows


def run_bsq_outliers(dims=(1024, 4096), draws: int = 1_000_000,
                     master_seed: int = DEFAULT_MASTER_SEED,
                     threads: int = 1) -> list[VerifyReport]:
    """Escape-fraction check: the measured share of two-layer rotated
    two-spike coordinates beyond each tail threshold (``p`` = 0.1, 0.01)
    stays within ``p + 2.56/sqrt(d)`` plus a three-sigma binomial allowance."""
    kind = "two_spike"
    rows = []
    for d in dims:
        n_trials = _trials_for(draws, d)
        xu, _ = unit_vector(gen_adversarial(kind, d))
        values = map_rotated(xu, 2, n_trials, master_seed, np.abs, threads)
        n = values.size
        for p in (0.1, 0.01):
            frac = float(np.mean(values > threshold_for_p(p)))
            bound = p + OUTLIER_2LAYER_C / math.sqrt(d)
            slack = 3.0 * math.sqrt(p / n)
            rows.append(VerifyReport(
                experiment="bsq-outliers", d=d, statistic=frac, bound=bound,
                slack=slack,
                trials=n_trials, std_err=math.sqrt(p * (1 - p) / n),
                claim="outlier-fraction", slack_kind="3sigma-binomial",
                extra={"tail_mass": p, "kind": kind, "n": n},
            ))
    return rows


def run_bsq_transfer(d: int = 1024, bits: int = 2, tail: float = 0.01,
                     trials: int = 1000,
                     master_seed: int = DEFAULT_MASTER_SEED,
                     threads: int = 1) -> list[VerifyReport]:
    """Error-transfer bound on the rotated adversarial input (``|mean e(U) -
    int e dPhi| <= 1.28 TV(e)/sqrt(d)`` plus four standard errors), plus the
    unrotated grid-midpoint input as a negative control that must violate it."""
    cfg = BsqConfig(bits=bits, tail_mass=tail)
    expected, tv = expected_error_gaussian(cfg), tv_of_error_function(cfg)
    bound = KOLMOGOROV_2LAYER_C * tv / math.sqrt(d)
    negative = gen_adversarial("grid_midpoints", d, tail_mass=tail, bits=bits)
    rows = []
    for x, n_trials, layers in ((gen_adversarial("two_spike", d), trials, 2),
                                (negative, 16, 0)):
        measured, std_err = mean_se(verify_tv_transfer(
            x, cfg, n_trials, layers, master_seed, threads))
        rows.append(VerifyReport(
            experiment="bsq-transfer", d=d, statistic=abs(measured - expected),
            bound=bound, slack=4.0 * std_err, trials=n_trials, std_err=std_err,
            claim="quantization-error-transfer" + ("" if layers else "-unrotated"),
            slack_kind="4sigma", negative_control=not layers,
            extra={"measured_mean_error": measured, "gaussian_mean_error": expected,
                   "total_variation": tv, "layers": layers,
                   "sampling_error_small_enough": bool(std_err < bound / 3.0)}))
    return rows


def run_lemma_bottleneck(master_seed: int = DEFAULT_MASTER_SEED) -> list[VerifyReport]:
    """Exact two-layer bottleneck: for the two-spike input the final-layer
    conditional covariance of pair (0, 1) is two-valued ``+-1`` with sign
    equal to the product of the plane's first two signs (checked to a few
    ulps on 100 planes at each d = 4 .. 256), and the closed form matches
    brute-force enumeration at d=8."""
    planes = 100
    rows = []
    for d in (4, 8, 16, 32, 64, 128, 256):
        xu = gen_adversarial("two_spike", d)
        signs = layer_signs(derive_seeds(master_seed, 0, planes), 1, d)
        covs = np.array([
            conditional_cov_exact(xu, signs[t], 0, 1) for t in range(planes)
        ])
        magnitudes = np.unique(np.abs(covs))
        two_valued = magnitudes.size == 1
        sign_ok = bool(np.all(np.sign(covs) == signs[:, 0] * signs[:, 1]))
        stat = float(abs(magnitudes[-1] - 1.0))
        if not (two_valued and sign_ok):
            stat = 1.0
        slack = 1e-15
        rows.append(VerifyReport(
            experiment="bottleneck", d=d, statistic=stat, bound=0.0,
            slack=slack, trials=planes,
            std_err=0.0, claim="pair-covariance-two-valued",
            slack_kind="float-ulp",
            extra={"two_valued": two_valued, "sign_matches_plane": sign_ok,
                   "magnitude": float(magnitudes[-1])},
        ))

    d = 8
    xu = gen_adversarial("two_spike", d)
    eps_bits = np.arange(1 << d, dtype=np.uint32)
    eps = 1.0 - 2.0 * ((eps_bits[:, None] >> np.arange(d)[None, :]) & 1)
    worst = 0.0
    for pattern in range(1 << d):
        s = 1.0 - 2.0 * ((pattern >> np.arange(d)) & 1).astype(np.float64)
        closed = conditional_cov_exact(xu, s, 0, 1)
        a = s * xu
        fwht(a, normalize=True, out=a)
        u_rows = eps * a
        fwht(u_rows, normalize=True, out=u_rows)
        u_rows *= math.sqrt(d)
        brute = float(np.mean(u_rows[:, 0] * u_rows[:, 1]))
        worst = max(worst, abs(closed - brute))
    rows.append(VerifyReport(
        experiment="bottleneck", d=d, statistic=worst, bound=0.0, slack=1e-12,
        trials=1 << d, std_err=0.0,
        claim="pair-covariance-brute-force", slack_kind="float-ulp",
        extra={"planes": 1 << d, "final_layer_draws": 1 << d},
    ))
    return rows


def run_vq_decorrelation(dims=(256, 1024, 4096), trials: int = 1000,
                         master_seed: int = DEFAULT_MASTER_SEED,
                         threads: int = 1) -> list[VerifyReport]:
    """Third-layer decorrelation: the RMS conditional covariance stays under
    ``sqrt(2 E|R1 xu|_inf^2)`` and decays with dimension.

    The pair is (0, 2): for the two-spike input the one-layer output is
    supported on one index parity, so pairs whose XOR flips the low bit have
    identically zero covariance and carry no information.
    """
    i, j = 0, 2
    rows = []
    rms_values = []
    for d in dims:
        covs, linf_sq = conditional_cov_trials(
            gen_adversarial("two_spike", d), i, j, 3, trials, master_seed,
            threads)
        m2, se_m2 = mean_se(covs * covs)
        rms = math.sqrt(m2)
        se_rms = se_m2 / (2.0 * rms) if rms > 0 else 0.0
        mean_linf_sq, se_linf_sq = mean_se(linf_sq)
        b2, se_b2 = 2.0 * mean_linf_sq, 2.0 * se_linf_sq
        bound = math.sqrt(b2)
        se_bound = se_b2 / (2.0 * bound) if bound > 0 else 0.0
        slack = 4.0 * (se_rms + se_bound)
        rms_values.append((d, rms, se_rms, trials))
        rows.append(VerifyReport(
            experiment="vq-decorrelation", d=d, statistic=rms, bound=bound,
            slack=slack, trials=trials,
            std_err=se_rms, claim="final-layer-decorrelation",
            slack_kind="4sigma",
            extra={"pair": [i, j], "mean_linf_sq": mean_linf_sq},
        ))
    return rows + _trend_rows("rms-decreasing", rms_values, 0.0,
                              experiment="vq-decorrelation")


def _universality_rows(dims, rht, gauss, label: str,
                       negative: bool) -> list[VerifyReport]:
    """Scaled-gap trend and final-gap rows from ``verify_codebook_universality``'s
    samples ``rht`` and the Gaussian reference ``gauss``; the loop leaves the
    last dimension's values for the final row."""
    err_gauss, gauss_se = mean_se(gauss)
    scaled = []
    for d, trial_errs in zip(dims, rht):
        err_rht, rht_se = mean_se(trial_errs)
        gap, gap_se = abs(err_rht - err_gauss), math.hypot(rht_se, gauss_se)
        f = math.sqrt(d / math.log(d))
        scaled.append((d, gap * f, gap_se * f, trial_errs.size))
    rows = _trend_rows(f"{label}-scaled-gap-trend", scaled, 4.0,
                       {"scale": "sqrt(d/log d)"}, experiment="vq-universality",
                       negative_control=negative)
    rows.append(VerifyReport(
        experiment="vq-universality", d=d, statistic=gap,
        bound=0.05, slack=0.0,  # pilot-calibrated final gap
        trials=trial_errs.size,
        std_err=gap_se, claim=f"{label}-final-gap",
        slack_kind="pilot-calibrated", negative_control=negative,
        extra={"err_rht": err_rht, "err_gauss": err_gauss,
               "stein_bound": stein_diagnostic_constant(4)},
    ))
    return rows


def run_vq_universality(dims=(256, 1024, 4096), trials: int = 10_000,
                        train_seed: int = 2024,
                        master_seed: int = DEFAULT_MASTER_SEED,
                        include_negative: bool = True,
                        threads: int = 1) -> list[VerifyReport]:
    """One 16-centroid codebook of 4-dim blocks across dimensions: the
    distortion gap against fresh Gaussian blocks decays like
    ``sqrt(log d / d)`` under 3 rotation layers (trend of the scaled gap,
    plus a pilot-calibrated final absolute gap under 0.05); with
    2 layers the two-spike input must keep a non-decaying gap."""
    pattern = gen_adversarial("two_spike", 4)
    dims = universality_dims(dims, 4, pattern.size)  # before the codebook training
    codebook = train_gaussian_codebook(4, 16, train_seed)
    gauss = gaussian_distortions(codebook, trials, master_seed)  # shared by both runs
    positive = verify_codebook_universality(
        pattern, codebook, dims, trials, master_seed=master_seed, layers=3,
        threads=threads)
    rows = _universality_rows(dims, positive, gauss, "universality", negative=False)
    if include_negative:
        negative = verify_codebook_universality(
            pattern, codebook, dims, trials, master_seed=master_seed,
            layers=2, threads=threads)
        rows.extend(_universality_rows(dims, negative, gauss, "two-layer-control",
                                       negative=True))
    return rows


def run_adaptive_decisions(master_seed: int = DEFAULT_MASTER_SEED) -> list[VerifyReport]:
    """The three canonical layer-count decisions at d=1024, checked exactly."""
    d = 1024
    rht_of_one_hot = apply_rotation(gen_adversarial("one_hot", d),
                                    RotationSpec(d, 1, master_seed))
    cases = [
        ("one_hot", gen_adversarial("one_hot", d), (2, 3)),
        ("flat", gen_adversarial("flat", d), (1, 2)),
        ("rht_of_one_hot", rht_of_one_hot, (1, 2)),
    ]
    rows = []
    for name, x, expected in cases:
        decision = decide_layers(x)
        got = (decision.scalar_layers, decision.vq_layers)
        mismatches = float(got != expected)
        rows.append(VerifyReport(
            experiment="adaptive", d=d, statistic=mismatches, bound=0.0,
            slack=0.0, trials=1, std_err=0.0,
            claim="layer-decision", slack_kind="exact",
            extra={"input": name, "expected": list(expected),
                   "got": list(got), "rho3": decision.rho3,
                   "linf_sq": decision.linf_sq},
        ))
    return rows


def run_adaptive_soundness(n_inputs: int = 100, d: int = 256,
                           draws: int = 1_000_000,
                           master_seed: int = DEFAULT_MASTER_SEED,
                           threads: int = 1) -> list[VerifyReport]:
    """Soundness of the 1-layer recommendation: every random input passing
    the third-moment check also passes the single-layer Kolmogorov bound
    ``0.5606 eta3`` (+ DKW) on a million pooled coordinate draws."""
    n_inputs = _input_int(n_inputs, "n_inputs", 1)
    eta3 = default_eta3(d)
    chosen = []
    attempts = 0
    while len(chosen) < n_inputs and attempts < 3 * n_inputs:
        x = gen_adversarial("dirichlet_random", d,
                            seed=derive_seed(master_seed, attempts))
        attempts += 1
        if decide_layers(x).scalar_layers == 1:
            chosen.append((attempts - 1, x))
    if len(chosen) < n_inputs:
        raise RuntimeError("could not find enough inputs passing the scan")

    n_trials = _trials_for(draws, d)
    n = n_trials * d
    bound = BERRY_ESSEEN_C * eta3
    slack = dkw_slack(n)

    def one(item):
        idx, x = item
        values = map_rotated(unit_vector(x)[0], 1, n_trials,
                             derive_seed(master_seed, 10_000 + idx), np.ravel)
        return empirical_kolmogorov(EmpiricalSample.from_values(values))

    dks = list(run_ordered(chosen, one, threads))
    worst = int(np.argmax(dks))
    stat = float(dks[worst])
    return [VerifyReport(
        experiment="adaptive", d=d, statistic=stat, bound=bound, slack=slack,
        trials=n_inputs, std_err=0.0,
        claim="one-layer-soundness", slack_kind="dkw",
        extra={"n_inputs": n_inputs, "attempts": attempts,
               "draws_per_input": n, "worst_input_index": chosen[worst][0],
               "mean_dk": float(np.mean(dks))},
    )]


def run_cd_expansion() -> list[VerifyReport]:
    """Accuracy of the scaling-constant expansion
    ``c_d ~ sqrt(2/pi) (1 + 1/(4d))`` over every dimension from 16 to 2^20:
    the worst ``d^2``-scaled deviation stays under 10."""
    d_min, d_max = 16, 1 << 20
    d = np.arange(d_min, d_max + 1, dtype=np.float64)
    cd = cd_values(d)
    approx = math.sqrt(2.0 / math.pi) * (1.0 + 1.0 / (4.0 * d))
    scaled = d * d * np.abs(cd - approx)
    worst = int(np.argmax(scaled))
    stat = float(scaled[worst])
    return [VerifyReport(
        experiment="cd-expansion", d=int(d[worst]), statistic=stat,
        bound=10.0, slack=0.0,
        trials=int(d_max - d_min + 1), std_err=0.0,
        claim="l1-scale-constant-expansion", slack_kind="exact",
        extra={"d_min": d_min, "d_max": d_max, "worst_d": int(d[worst])},
    )]


# Every runner in report row order, under the subcommand that runs it;
# ``rotquant report`` runs them all.
RUNNERS = (
    ("verify-scalar", run_scalar_convergence),
    ("verify-drive", run_drive_biased),
    ("verify-drive", run_drive_unbiased),
    ("dme", run_dme),
    ("verify-bsq", run_bsq_outliers),
    ("verify-bsq", run_bsq_transfer),
    ("verify-vq", run_lemma_bottleneck),
    ("verify-vq", run_vq_decorrelation),
    ("verify-vq", run_vq_universality),
    ("report", run_adaptive_decisions),
    ("report", run_adaptive_soundness),
    ("report", run_cd_expansion),
)
