import ast
import importlib
import json
import os
import pkgutil
import re
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
    """``import rotquant`` loads numpy and the package only; DRIVE, BSQ, VQ,
    the ``grid_midpoints`` generator and the pipeline CLI commands never
    reach ``scipy.special`` or a thread pool."""
    steps = [
        ("import", "import rotquant, rotquant.cli"),
        ("drive-biased", _DRIVE_ROUNDTRIP.format(mode="biased")),
        ("drive-unbiased", _DRIVE_ROUNDTRIP.format(mode="unbiased")),
        ("bsq", "import numpy as np, rotquant as rq\n"
                "x = np.random.default_rng(2).standard_normal(256)\n"
                "cfg = rq.BsqConfig(bits=4, tail_mass=0.01)\n"
                "pay = rq.deserialize(rq.serialize(rq.bsq_encode(x, rq.RotationSpec(256, 2, 5), cfg, 6)))\n"
                "rq.bsq_decode(pay)"),
        ("grid-midpoints", "import rotquant as rq\n"
                           "rq.gen_adversarial('grid_midpoints', 256, tail_mass=0.05, bits=3)"),
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


def test_empirical_metric_loads_scipy_special():
    """The documented split: an empirical metric is a call that loads
    ``scipy.special`` (which itself may bring in ``concurrent.futures``)."""
    step = "m.empirical_kolmogorov(m.EmpiricalSample.from_values([0.5, -1.0]))"
    loaded = _loaded_after([("import", "import rotquant as rq"),
                            ("step", "import rotquant as rq\nfrom rotquant import metrics as m\n" + step)])
    assert loaded["import"] == [] and "scipy.special" in loaded["step"]


def _module_level_scipy_imports(source: str) -> list:
    """``import scipy...``/``from scipy... import`` statements of the module
    ``source`` that run on import: anywhere outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = ([a.name for a in child.names] if isinstance(child, ast.Import)
                     else [child.module or ""] if isinstance(child, ast.ImportFrom) else [])
            found.extend(f"{child.lineno}: {n}" for n in names
                         if n == "scipy" or n.startswith("scipy."))
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_scipy_import_guard_catches_a_module_level_import():
    source = ("import numpy as np\n"
              "from scipy.special import ndtr\n"
              "try:\n"
              "    import scipy.linalg as sl\n"
              "except ImportError:\n"
              "    sl = None\n"
              "class Kernel:\n"
              "    import scipy\n"
              "def lazy():\n"
              "    from scipy.special import ndtri\n"
              "    return ndtri\n")
    assert _module_level_scipy_imports(source) == [
        "2: scipy.special", "4: scipy.linalg", "8: scipy"]


@pytest.mark.parametrize("path", sorted(Path(rotquant.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_module_imports_scipy_at_module_level(path):
    """scipy is imported inside the few functions that need it, so importing
    any package module loads no scipy."""
    assert _module_level_scipy_imports(path.read_text()) == []


def _unused_imports(source: str) -> list:
    """Names that the module ``source`` imports but neither uses nor lists
    in ``__all__``; an import on a line marked ``# noqa: F401`` followed by
    a reason is skipped.  A stdlib stand-in for a linter's F401 check."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or re.search(r"# noqa: F401\s+\S", lines[node.lineno - 1])):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_the_import_guard_catches_a_stale_import():
    source = ("from .core import _old_kernel, fwht, rotate_many\n"
              "from .core import layer_signs  # noqa: F401  (patched by name)\n"
              "from .core import check_dim  # noqa: F401\n"
              "__all__ = ['rotate_many']\n"
              "fwht(1)\n")
    assert _unused_imports(source) == ["1: _old_kernel", "3: check_dim"]


@pytest.mark.parametrize("path", sorted(Path(rotquant.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_import_is_used_or_exported(path):
    """Each name a package module imports is used there or listed in its
    ``__all__``, unless its line says ``# noqa: F401`` and why."""
    assert _unused_imports(path.read_text()) == []


def _unread_private_names(source: str) -> list:
    """Module-level private names (a ``_name`` def, class or assignment
    target) of the module ``source`` that the module itself never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        unread += [f"{node.lineno}: {name}" for name in names
                   if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_the_private_name_guard_catches_an_unread_name():
    source = ("_TABLE = 1\n"
              "_old, _kept = 2, 3\n"
              "def _butterfly(src, dst, h):\n"
              "    _local = 0\n"
              "class _Spare:\n"
              "    _attr = 1\n"
              "__all__ = ['public']\n"
              "def public():\n"
              "    return _TABLE + _kept\n")
    assert _unread_private_names(source) == ["2: _old", "3: _butterfly", "5: _Spare"]


@pytest.mark.parametrize("path", sorted(Path(rotquant.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_private_name_is_read_in_its_module(path):
    """A module-level ``_name`` that its own module never reads is dead
    code, or a helper that only other modules or tests reach."""
    assert _unread_private_names(path.read_text()) == []


_CONVERTERS = {"asarray", "array", "ascontiguousarray", "fromiter"}
_FLOAT64 = {"float64", "double", "float", "f8", "<f8", "d"}


def _calls_on_parameters(source: str):
    """``(function name, call)`` for each call in a public function or method
    of the module ``source`` whose first argument is one of that function's
    own parameters, unless the call's line says ``# gate:`` and why."""
    lines = source.splitlines()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
            continue
        params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        for call in ast.walk(fn):
            if (isinstance(call, ast.Call) and call.args and isinstance(call.args[0], ast.Name)
                    and call.args[0].id in params
                    and not re.search(r"# gate:\s*\S", lines[call.lineno - 1])):
                yield fn.name, call


def _hand_rolled_conversions(source: str) -> list:
    """``np.asarray``/``np.array`` (or ``ascontiguousarray``/``fromiter``)
    calls with a float64 dtype on a parameter of a public function or
    method of the module ``source`` (:func:`_calls_on_parameters`).  Such
    input goes through ``core._input_array``, the one gate that refuses
    complex and other non-real dtypes."""
    found = []
    for fn, call in _calls_on_parameters(source):
        if not (isinstance(call.func, ast.Attribute) and call.func.attr in _CONVERTERS
                and isinstance(call.func.value, ast.Name) and call.func.value.id in ("np", "numpy")):
            continue
        dtype = next((k.value for k in call.keywords if k.arg == "dtype"),
                     call.args[1] if len(call.args) > 1 else None)
        name = (dtype.attr if isinstance(dtype, ast.Attribute)
                else dtype.id if isinstance(dtype, ast.Name)
                else dtype.value if isinstance(dtype, ast.Constant) else None)
        if name in _FLOAT64:
            found.append(f"{call.lineno}: {fn}({call.args[0].id})")
    return found


def test_the_conversion_guard_catches_a_hand_rolled_conversion():
    source = ("import numpy as np\n"
              "def encode(x, spec, *, values=None):\n"
              "    a = np.asarray(x, dtype=np.float64)\n"
              "    b = np.array(values, np.double)\n"
              "    c = np.asarray(spec.table, dtype=np.float64)\n"
              "    e = np.asarray(x, dtype=np.uint32)\n"
              "    f = np.fromiter(x, dtype=float)  # gate: a stream of trusted floats\n"
              "    g = np.ascontiguousarray(x, dtype='f8')  # gate:\n"
              "    return a\n"
              "def _helper(x):\n"
              "    return np.asarray(x, dtype=np.float64)\n"
              "class Sample:\n"
              "    def from_values(cls, values):\n"
              "        return np.asarray(values, dtype='float64')\n")
    assert _hand_rolled_conversions(source) == [
        "3: encode(x)", "4: encode(values)", "8: encode(x)", "14: from_values(values)"]


@pytest.mark.parametrize("path", sorted(Path(rotquant.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_public_input_goes_through_the_gate(path):
    """No public function converts a parameter to float64 by hand: the
    gate's dtype, shape and finiteness rules would not run on it."""
    assert _hand_rolled_conversions(path.read_text()) == []


def _hand_rolled_scalars(source: str) -> list:
    """``int(p)``/``float(p)`` calls on a parameter ``p`` of a public
    function or method of the module ``source`` (:func:`_calls_on_parameters`).
    ``int`` truncates a float and ``float`` parses a str, so such a scalar
    goes through ``rng._input_int`` or ``core._input_array`` at zero axes."""
    return [f"{call.lineno}: {fn}({call.func.id}({call.args[0].id}))"
            for fn, call in _calls_on_parameters(source)
            if isinstance(call.func, ast.Name) and call.func.id in ("int", "float")]


def test_the_scalar_guard_catches_a_hand_rolled_parse():
    source = ("def scale_for(d, p, *, bits=2):\n"
              "    n = int(d)\n"
              "    t = float(p)  # gate: the caller checked it\n"
              "    b = int(bits)\n"
              "    m = float(n) + int(d + 1) + round(p)\n"
              "    return n, t, b, m\n"
              "def _helper(d):\n"
              "    return int(d)\n"
              "class Config:\n"
              "    def tail(self, p):\n"
              "        return float(p)\n")
    assert _hand_rolled_scalars(source) == [
        "2: scale_for(int(d))", "4: scale_for(int(bits))", "11: tail(float(p))"]


@pytest.mark.parametrize("path", sorted(Path(rotquant.__file__).parent.glob("*.py")),
                         ids=lambda p: p.stem)
def test_public_scalars_go_through_the_gate(path):
    """No public function parses a parameter with ``int`` or ``float``:
    the integer rule's range and the real gate's dtype rules would not run."""
    assert _hand_rolled_scalars(path.read_text()) == []
