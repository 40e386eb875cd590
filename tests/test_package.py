import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rotquant


def test_every_exported_name_resolves():
    """Each ``__all__`` entry of the package and of its modules names an
    attribute that exists, so a deleted name cannot stay exported."""
    for info in pkgutil.iter_modules(rotquant.__path__):
        module = importlib.import_module(f"rotquant.{info.name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
    missing = [n for n in rotquant.__all__ if not hasattr(rotquant, n)]
    assert not missing, missing


# Run in a fresh interpreter: each step's source, then a record of which of
# the heavy modules are loaded after it.  Output of the CLI steps is discarded.
_PROBE = """
import contextlib, io, json, sys
loaded = {}
for name, step in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(step)
    loaded[name] = [m for m in ("scipy.special", "concurrent.futures") if m in sys.modules]
print(json.dumps(loaded))
"""

_DRIVE_ROUNDTRIP = """
import numpy as np, rotquant as rq
x = np.random.default_rng(0).standard_normal(256)
pay = rq.deserialize(rq.serialize(rq.drive_encode(x, rq.RotationSpec(256, 2, 9), {mode!r})))
rq.drive_decode(pay)
"""


def _loaded_after(steps):
    """Which of ``scipy.special`` and ``concurrent.futures`` a fresh
    interpreter holds after each ``(name, source)`` step, run in order."""
    src = str(Path(rotquant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(steps)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_and_codec_paths_load_no_scipy_special_or_thread_pool():
    """``import rotquant`` loads numpy and the package only; DRIVE, VQ and the
    pipeline CLI commands never reach ``scipy.special`` or a thread pool."""
    steps = [
        ("import", "import rotquant, rotquant.cli"),
        ("drive-biased", _DRIVE_ROUNDTRIP.format(mode="biased")),
        ("drive-unbiased", _DRIVE_ROUNDTRIP.format(mode="unbiased")),
        ("vq", "import numpy as np, rotquant as rq\n"
               "cb = rq.train_gaussian_codebook(4, 16, 7, n_samples=1000)\n"
               "spec = rq.RotationSpec(256, 2, 3)\n"
               "idx, scale = rq.vq_encode(np.random.default_rng(1).standard_normal(256), spec, cb)\n"
               "rq.vq_decode(idx, scale, spec, cb)"),
        ("transform", "from rotquant import cli\n"
                      "assert cli.main(['transform', '--gen', 'two_spike', '--d', '64']) == 0"),
        ("check", "from rotquant import cli\n"
                  "assert cli.main(['check', '--gen', 'two_spike', '--d', '64']) == 0"),
    ]
    assert _loaded_after(steps) == {name: [] for name, _ in steps}


@pytest.mark.parametrize("step", [
    "rq.BsqConfig(bits=2, tail_mass=0.01).threshold",
    "m.empirical_kolmogorov(m.EmpiricalSample.from_values([0.5, -1.0]))",
])
def test_bsq_threshold_and_empirical_metrics_load_scipy_special(step):
    """The documented split: these are the calls that load ``scipy.special``
    (which itself may bring in ``concurrent.futures``)."""
    loaded = _loaded_after([("import", "import rotquant as rq"),
                            ("step", "import rotquant as rq\nfrom rotquant import metrics as m\n" + step)])
    assert loaded["import"] == [] and "scipy.special" in loaded["step"]
