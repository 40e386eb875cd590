"""Adversarial and randomized unit-norm test inputs.

These are the worst cases the guarantees are exercised against: maximal
spikes for the rotation theorems, a vector engineered to sit on the
quantizer's error peaks for the negative control, and random simplex draws
for the adaptive soundness property.
"""

from __future__ import annotations

import math

import numpy as np

from .bsq import BsqConfig
from .core import check_dim, unit_vector
from .rng import MASK64, Xoshiro256pp, _input_int

__all__ = ["KINDS", "gen_adversarial"]

KINDS = ("one_hot", "two_spike", "flat", "grid_midpoints", "dirichlet_random")


def _grid_midpoints(d: int, tail_mass: float, bits: int) -> np.ndarray:
    """A vector whose normalized rotated-free coordinates sit on the cell
    midpoints of the quantizer grid, where the conditional error peaks.

    Puts enough mass at the outermost midpoint ``t - w/2`` for unit scale
    (about ``d / midpoint^2`` coordinates, alternating signs) and leaves the
    rest at 0, the central cell's midpoint.  Deterministic by design: it is
    the fixed adversarial input for the unrotated negative control.
    """
    cfg = BsqConfig(bits=bits, tail_mass=tail_mass)
    lv = cfg.levels
    m_hi = float((lv[-2] + lv[-1]) / 2.0)
    n_hi = min(d, max(1, round(d / (m_hi * m_hi))))
    x = np.zeros(d)
    x[:n_hi] = m_hi
    x[1:n_hi:2] *= -1.0
    return x


def gen_adversarial(kind: str, d: int, seed: int = 0, tail_mass: float = 0.01,
                    bits: int = 2) -> np.ndarray:
    """Unit-norm test vector of the named kind; ``seed`` matters only for
    ``dirichlet_random``.  ``tail_mass``/``bits`` shape ``grid_midpoints``."""
    d = check_dim(d)
    if kind == "one_hot":
        x = np.zeros(d)
        x[0] = 1.0
        return x
    if kind == "two_spike":
        if d < 2:
            raise ValueError("two_spike needs at least two coordinates")
        x = np.zeros(d)
        x[0] = x[1] = 1.0 / math.sqrt(2.0)
        return x
    if kind == "flat":
        return np.full(d, 1.0 / math.sqrt(d))
    if kind == "grid_midpoints":
        x = _grid_midpoints(d, tail_mass, bits)
        return unit_vector(x)[0]
    if kind == "dirichlet_random":
        gen = Xoshiro256pp([_input_int(seed, "seed", 0, MASK64)])
        u = gen.uniforms(d)[0]
        weights = -np.log1p(-u)  # exponentials -> symmetric Dirichlet mass
        x = gen.sign_values(d)[0] * np.sqrt(weights / weights.sum())
        return unit_vector(x)[0]
    raise ValueError(f"unknown input kind {kind!r}; expected one of {KINDS}")
