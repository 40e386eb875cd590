"""Randomized-rotation preprocessing for vector quantization.

The package composes seeded sign-flip + fast Hadamard layers to condition a
vector before quantizing it, ships three quantizers over that front end
(1-bit sign, bounded-support b-bit, and small-block codebooks), a byte-exact
wire codec, an O(d) adaptive layer-count check, and a verification harness
whose report rows compare measured statistics against closed-form bounds.
"""

from .adaptive import AdaptiveDecision, decide_layers
from .bsq import (
    BsqConfig,
    BsqPayload,
    bsq_decode,
    bsq_encode,
    expected_error_gaussian,
    threshold_for_p,
    tv_of_error_function,
    verify_tv_transfer,
)
from .codec import FormatError, deserialize, serialize
from .core import (
    MAX_LAYERS,
    RotationSpec,
    apply_rotation,
    fwht,
    inverse_rotation,
    rotate_many,
)
from .drive import (
    DrivePayload,
    dme_simulate,
    drive_decode,
    drive_encode,
    measure_drive_error,
    scaling_constant_cd,
)
from .generators import gen_adversarial
from .metrics import (
    conditional_cov_exact,
    empirical_kolmogorov,
    empirical_w1,
    moment_scan,
)
from .reporting import VERSION, VerifyReport, all_ok, render_rows
from .rng import Xoshiro256pp, derive_seed, derive_seeds
from .vq import (
    Codebook,
    stein_diagnostic_constant,
    train_gaussian_codebook,
    verify_codebook_universality,
    vq_decode,
    vq_encode,
)

__version__ = VERSION

__all__ = [
    "AdaptiveDecision",
    "BsqConfig",
    "BsqPayload",
    "Codebook",
    "DrivePayload",
    "FormatError",
    "MAX_LAYERS",
    "RotationSpec",
    "VERSION",
    "VerifyReport",
    "Xoshiro256pp",
    "all_ok",
    "apply_rotation",
    "bsq_decode",
    "bsq_encode",
    "conditional_cov_exact",
    "decide_layers",
    "derive_seed",
    "derive_seeds",
    "deserialize",
    "dme_simulate",
    "drive_decode",
    "drive_encode",
    "empirical_kolmogorov",
    "empirical_w1",
    "expected_error_gaussian",
    "fwht",
    "gen_adversarial",
    "inverse_rotation",
    "measure_drive_error",
    "moment_scan",
    "render_rows",
    "rotate_many",
    "scaling_constant_cd",
    "serialize",
    "stein_diagnostic_constant",
    "threshold_for_p",
    "train_gaussian_codebook",
    "tv_of_error_function",
    "verify_codebook_universality",
    "verify_tv_transfer",
    "vq_decode",
    "vq_encode",
]
