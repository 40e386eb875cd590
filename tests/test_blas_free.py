"""Every payload byte and report row is the same under any BLAS build and
BLAS thread count: norms go through ``core.sum_sq`` (or a fixed ``einsum``),
and no BLAS call is left on such a path."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import rotquant

SRC = Path(rotquant.__file__).parent

# Hashes of encoder bytes, generator outputs, a VQ codebook and its indices,
# and the rows of reduced runs; printed as one JSON object.
SCRIPT = """
import hashlib, json
import numpy as np
from rotquant import codec
from rotquant.bsq import BsqConfig, bsq_encode
from rotquant.core import RotationSpec, unit_vector
from rotquant.drive import drive_encode
from rotquant.experiments import (run_adaptive_soundness, run_bsq_transfer,
                                  run_drive_unbiased, run_scalar_convergence,
                                  run_vq_universality)
from rotquant.generators import gen_adversarial
from rotquant.vq import train_gaussian_codebook, vq_encode

def digest(data):
    return hashlib.sha256(data).hexdigest()

out = {}
cb = train_gaussian_codebook(4, 16, train_seed=2024, n_samples=4000)
out["codebook"] = digest(codec.serialize(cb))
for d in (4096, 1 << 16):
    x = np.random.default_rng(d).standard_cauchy(d)  # heavy-tailed
    spec = RotationSpec(d, 2, 7)
    for mode in ("biased", "unbiased"):
        out[f"drive-{mode}-{d}"] = digest(codec.serialize(drive_encode(x, spec, mode)))
    out[f"bsq-{d}"] = digest(codec.serialize(
        bsq_encode(x, spec, BsqConfig(bits=3, tail_mass=0.05), noise_seed=1)))
    out[f"unit_vector-{d}"] = digest(unit_vector(x)[0].tobytes())
    for kind in ("grid_midpoints", "dirichlet_random"):
        out[f"{kind}-{d}"] = digest(gen_adversarial(kind, d, seed=3).tobytes())
    idx, scale = vq_encode(x, RotationSpec(d, 3, 7), cb)
    out[f"vq-{d}"] = digest(idx.tobytes() + np.float64(scale).tobytes())
for run, kwargs in (
        (run_drive_unbiased, dict(d=4096, trials=64, bias_dims=(64, 256, 1024, 4096),
                                  bias_trials=(64, 64, 64, 64))),
        (run_adaptive_soundness, dict(n_inputs=3, d=256, draws=20_000)),
        (run_bsq_transfer, dict(d=256, trials=200)),
        (run_scalar_convergence, dict(dims=(64,), draws=20_000)),
        (run_vq_universality, dict(dims=(256,), trials=500))):
    rows = [r.to_row() for r in run(**kwargs)]
    out[run.__name__] = digest(json.dumps(rows, sort_keys=True).encode())
print(json.dumps(out))
"""


def test_bytes_and_rows_do_not_depend_on_the_blas_kernel():
    """The same script under the default BLAS set-up and under OpenBLAS's
    oldest x86-64 kernel (no fused multiply-add) on one thread."""
    base = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    envs = [base, {**base, "OPENBLAS_CORETYPE": "Prescott",
                   "OPENBLAS_NUM_THREADS": "1"}]
    procs = [subprocess.Popen([sys.executable, "-c", SCRIPT], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for env in envs]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outs.append(json.loads(out))
    default, prescott = outs
    assert len(default) == 20
    assert [k for k in default if default[k] != prescott[k]] == []


# Names whose use calls BLAS or LAPACK; every ``@`` does too.
BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "matmul", "polyfit", "lstsq"}


def _blas_uses(path):
    """``(line, what)`` for every BLAS name and every ``@`` in one source
    file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        for name in names:
            if BLAS_NAMES & set(name.split(".")):
                found.append((node.lineno, name))
        if isinstance(getattr(node, "op", None), ast.MatMult):
            found.append((node.lineno, "@"))
    return sorted(found)


def test_no_blas_call_on_a_byte_path():
    sources = sorted(SRC.glob("*.py"))
    assert {p.name for p in sources} >= {"core.py", "drive.py", "vq.py", "codec.py"}
    found = {p.name: _blas_uses(p) for p in sources}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_the_source_guard_sees_each_form(tmp_path):
    src = tmp_path / "vq.py"
    src.write_text("import numpy.linalg\n"
                   "from numpy import dot\n"
                   "def _nearest_sq_dist(a, b):\n    return a @ b\n"
                   "def other(a, b):\n    a @= b\n    return np.polyfit(a, b, 1)\n",
                   encoding="utf-8")
    assert _blas_uses(src) == [(1, "numpy.linalg"), (2, "dot"), (4, "@"),
                               (6, "@"), (7, "polyfit")]
