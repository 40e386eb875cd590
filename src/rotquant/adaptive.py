"""Adaptive layer-count selection from a single O(d) moment scan.

Rotation layers are the expensive part of the pipeline, and most real inputs
do not need the worst-case count: one layer suffices for scalar quantization
when the normalized third moment is already as small as a rotation would
make it on average, and the vector pipeline can skip its smoothing layer
when no coordinate carries outsized mass.  Both conditions are functionals
of one moment scan, so the decision costs O(d) time.  Callers build the
rotation from the decision, e.g.
``RotationSpec(d, decide_layers(x).scalar_layers, seed)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import _input_array
from .metrics import BERRY_ESSEEN_C, CUBE_RATIO_C, W1_TRANSPORT_C, moment_scan
from .rng import _input_int

__all__ = [
    "AdaptiveDecision",
    "default_eta3",
    "default_eta_inf",
    "decide_layers",
]


def default_eta3(d: int) -> float:
    """Flatness target for the third moment: what one rotation layer
    achieves on average in the worst case."""
    return CUBE_RATIO_C / math.sqrt(_input_int(d, "d", 1))


def default_eta_inf(d: int) -> float:
    """Mass-concentration target for ``|xu|_inf^2``, at the scale a rotated
    vector meets with high probability."""
    d = _input_int(d, "d", 1)
    return 2.0 * math.log(2.0 * d) / d


@dataclass(frozen=True)
class AdaptiveDecision:
    """Measured flatness of an input and the layer counts it licenses."""

    rho3: float
    linf_sq: float
    eta3: float
    eta_inf: float
    scalar_layers: int  # 1 iff rho3 <= eta3, else 2
    vq_layers: int      # 2 iff linf_sq <= eta_inf, else 3

    @property
    def dk_bound(self) -> float:
        """Kolmogorov guarantee carried by the 1-layer scalar path."""
        return BERRY_ESSEEN_C * self.eta3

    @property
    def w1_bound(self) -> float:
        """1-Wasserstein guarantee carried by the 1-layer scalar path."""
        return W1_TRANSPORT_C * self.eta3

    @property
    def rms_cov_bound(self) -> float:
        """RMS conditional-covariance guarantee carried by the 2-layer
        vector path."""
        return 2.0 * math.sqrt(self.eta_inf)

    def to_dict(self) -> dict:
        return {
            "rho3": self.rho3,
            "linf_sq": self.linf_sq,
            "eta3": self.eta3,
            "eta_inf": self.eta_inf,
            "scalar_layers": self.scalar_layers,
            "vq_layers": self.vq_layers,
            "dk_bound": self.dk_bound,
            "w1_bound": self.w1_bound,
            "rms_cov_bound": self.rms_cov_bound,
        }


def _pow2_rescale(x):
    """``(x * 2^-e, e)`` with ``e`` from ``frexp(max |x|)`` (0 for a zero,
    infinite or NaN maximum), so the largest magnitude lands in [0.5, 1).
    Scaling by a power of two is exact unless an entry goes subnormal."""
    _, e = math.frexp(float(np.max(np.abs(x))))
    return np.ldexp(x, -e), e


def _ratios(stats):
    """``(rho3, linf_sq)`` from a moment scan, or ``None`` when a moment is
    zero, subnormal or infinite or ``sum_sq ** 1.5`` overflows."""
    moments = (stats.sum_sq, stats.sum_abs_cubed, stats.max_sq)
    if not all(sys.float_info.min <= m < math.inf for m in moments):
        return None
    try:
        return stats.sum_abs_cubed / stats.sum_sq ** 1.5, stats.max_sq / stats.sum_sq
    except (OverflowError, ZeroDivisionError):
        return None


def decide_layers(x, eta3: float | None = None,
                  eta_inf: float | None = None) -> AdaptiveDecision:
    """Single-pass flatness check; thresholds default to the rotated-input
    scales ``eta3 = C3/sqrt(d)`` and ``eta_inf = 2 ln(2d)/d``.  Raises
    ``ValueError`` for a zero or non-finite input, or a threshold that is
    not finite and positive.

    Both ratios are scale-invariant, so when the squares or cubes of a
    finite, non-zero input overflow or underflow (:func:`_ratios` gives
    ``None``) they are taken on ``x * 2^-e`` instead, with ``2^e`` from
    ``frexp(max |x|)``; any other input keeps its moments as scanned.
    """
    x = _input_array(x, "x", stream=True)  # read once: the rescale may scan it again
    stats = moment_scan(x)
    ratios = _ratios(stats)
    if ratios is None:
        ratios = _ratios(moment_scan(_pow2_rescale(x)[0]))
    if ratios is None:
        raise ValueError("input must be finite and non-zero")
    rho3, linf_sq = ratios
    d = stats.count
    eta3 = default_eta3(d) if eta3 is None else float(_input_array(eta3, "eta3", 0))
    eta_inf = default_eta_inf(d) if eta_inf is None else float(_input_array(eta_inf, "eta_inf", 0))
    for name, eta in (("eta3", eta3), ("eta_inf", eta_inf)):
        if not (math.isfinite(eta) and eta > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {eta}")
    return AdaptiveDecision(
        rho3=rho3,
        linf_sq=linf_sq,
        eta3=eta3,
        eta_inf=eta_inf,
        scalar_layers=1 if rho3 <= eta3 else 2,
        vq_layers=2 if linf_sq <= eta_inf else 3,
    )

