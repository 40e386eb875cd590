"""Command-line interface.

Subcommands fall into two groups: pipeline plumbing (``transform``,
``encode``, ``decode``, ``check``) operating on vector/payload files, and
verification runs (``verify-*``, ``dme``, ``report``) that print report rows
and exit non-zero when any check lands on the wrong side of its bound.  Every
verification run is :func:`cmd_run` over :data:`rotquant.experiments.RUNNERS`:
``report`` runs the whole table in order, and each ``verify-*``/``dme``
subcommand runs its own group at the same defaults, each flag setting the
runner parameter of its name (or the one :data:`FLAG_FOR` names).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import codec, experiments
from .adaptive import _pow2_rescale, decide_layers
from .bsq import BsqConfig, BsqPayload, bsq_decode, bsq_encode
from .core import RotationSpec, apply_rotation, inverse_rotation, sum_sq
from .drive import LIMIT_VNMSE, DrivePayload, drive_decode, drive_encode
from .experiments import DEFAULT_MASTER_SEED
from .generators import KINDS, gen_adversarial
from .reporting import all_ok, render_rows

__all__ = ["main"]

ENCODE_MODES = ("drive-biased", "drive-unbiased", "bsq")

# Runner parameters set by a flag of another name, by runner; every other
# parameter takes the parsed flag of its own name, where the subcommand has
# one.  ``--skip-negative`` sets ``include_negative`` to its negation.
FLAG_FOR = {
    "run_scalar_convergence": {"kind": "gen"},
    "run_dme": {"n_clients": "clients"},
    "run_bsq_transfer": {"d": "transfer_d", "tail": "tail_mass"},
    "run_vq_decorrelation": {"trials": "cov_trials"},
}


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(_positive_int(part) for part in text.split(",")
                     if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}")
    if not dims:
        raise argparse.ArgumentTypeError("empty dimension list")
    return dims


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_input_flags(p: argparse.ArgumentParser):
    p.add_argument("--in", dest="input", metavar="FILE",
                   help="vector file (wire kind 4)")
    p.add_argument("--gen", choices=KINDS, help="generate the input instead")
    p.add_argument("--d", type=int, default=1024,
                   help="dimension for --gen (default 1024)")
    p.add_argument("--gen-seed", type=int, default=0,
                   help="seed for the random generator kind")
    p.add_argument("--tail-mass", type=float, default=0.01,
                   help="tail mass shaping grid_midpoints / bsq (default 0.01)")
    p.add_argument("--bits", type=int, default=2,
                   help="quantizer bits for grid_midpoints / bsq (default 2)")


def _load_input(args) -> np.ndarray:
    if args.input and args.gen:
        raise SystemExit("give either --in or --gen, not both")
    if args.input:
        obj = codec.deserialize(Path(args.input).read_bytes())
        if not isinstance(obj, np.ndarray):
            raise SystemExit(f"{args.input} is not a vector file")
        return obj
    if args.gen:
        return gen_adversarial(args.gen, args.d, seed=args.gen_seed,
                               tail_mass=args.tail_mass, bits=args.bits)
    raise SystemExit("an input is required: --in FILE or --gen KIND")


def _emit(rows, args, timings: dict) -> int:
    """Print or write the rows, echoing the parsed arguments as the config
    and, in the JSON form, the wall seconds per runner.  With ``--out`` the
    printed summary also counts the rows whose verdict sampling noise could
    decide: ``|headroom_se| < 2``."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("fn", "format", "out")}
    text = render_rows(rows, config, fmt=args.format, timings=timings)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        summary = "all checks healthy" if all_ok(rows) else "CHECK FAILED"
        close = sum(r.headroom_se is not None and abs(r.headroom_se) < 2 for r in rows)
        print(f"{len(rows)} rows -> {args.out}: {summary}; "
              f"{close} within 2 standard errors of the bound")
    else:
        print(text, end="")
    return 0 if all_ok(rows) else 1


def _print_json(payload: dict):
    """Print ``payload`` as strict JSON; a NaN or infinite value raises
    ``ValueError`` rather than printing ``NaN``/``Infinity``."""
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def _norm(y) -> float:
    """``|y|_2`` computed on ``y * 2^-e`` (:func:`rotquant.adaptive._pow2_rescale`)
    and scaled back by ``2^e``, so a finite ``y`` whose norm fits in a
    float64 gets a finite norm even when its plain sum of squares overflows.
    Scaling by a power of two is exact, so this is bit-identical to
    ``sqrt(sum_sq(y))`` whenever no square overflows or underflows."""
    scaled, e = _pow2_rescale(y)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(sum_sq(scaled)), e))


def cmd_transform(args) -> int:
    x = _load_input(args)
    spec = RotationSpec(dim=x.size, layers=args.layers, seed=args.seed)
    y = inverse_rotation(x, spec) if args.inverse else apply_rotation(x, spec)
    if args.out:
        data = codec.serialize(y)
        Path(args.out).write_bytes(data)
        print(f"wrote {args.out} ({len(data)} bytes)")
    else:
        head = [float(v) for v in y[: min(8, y.size)]]
        _print_json({"d": int(y.size), "layers": spec.layers,
                     "seed": spec.seed, "inverse": bool(args.inverse),
                     "norm": _norm(y), "head": head})
    return 0


def cmd_encode(args) -> int:
    x = _load_input(args)
    spec = RotationSpec(dim=x.size, layers=args.layers, seed=args.seed)
    if args.mode in ("drive-biased", "drive-unbiased"):
        payload = drive_encode(x, spec, mode=args.mode.split("-", 1)[1])
    else:
        cfg = BsqConfig(bits=args.bits, tail_mass=args.tail_mass)
        payload = bsq_encode(x, spec, cfg, noise_seed=args.noise_seed)
    data = codec.serialize(payload)
    info = {"mode": args.mode, "d": spec.dim, "layers": spec.layers,
            "seed": spec.seed, "wire_bytes": len(data)}
    if isinstance(payload, BsqPayload):
        info["outliers"] = int(payload.outlier_idx.size)
        info["sent_fraction"] = payload.sent_fraction
    if args.out:
        Path(args.out).write_bytes(data)
        print(f"wrote {args.out} ({len(data)} bytes)")
    else:
        _print_json(info)
    return 0


def cmd_decode(args) -> int:
    obj = codec.deserialize(Path(args.input).read_bytes())
    if isinstance(obj, DrivePayload):
        xhat = drive_decode(obj)
        info = {"kind": "drive", "mode": obj.mode, "d": obj.spec.dim,
                "layers": obj.spec.layers, "seed": obj.spec.seed}
    elif isinstance(obj, BsqPayload):
        xhat = bsq_decode(obj)
        info = {"kind": "bsq", "bits": obj.config.bits,
                "tail_mass": obj.config.tail_mass, "d": obj.spec.dim,
                "layers": obj.spec.layers, "seed": obj.spec.seed,
                "outliers": int(obj.outlier_idx.size)}
    else:
        raise SystemExit(f"{args.input} does not hold a decodable payload")
    info["norm"] = _norm(xhat)
    if args.ref:
        ref = codec.deserialize(Path(args.ref).read_bytes())
        if not isinstance(ref, np.ndarray) or ref.size != xhat.size:
            raise SystemExit("--ref must be a vector file of matching length")
        scaled, e = _pow2_rescale(ref)  # as in _norm
        denom = float(sum_sq(scaled))
        if denom <= 0.0:
            raise SystemExit("--ref vector must be non-zero")
        info["vnmse"] = float(sum_sq(np.ldexp(xhat - ref, -e))) / denom
        if isinstance(obj, DrivePayload):
            info["expected_vnmse"] = LIMIT_VNMSE[obj.mode]
    if args.out:
        Path(args.out).write_bytes(codec.serialize(xhat))
        info["wrote"] = args.out
    _print_json(info)
    return 0


def cmd_check(args) -> int:
    decision = decide_layers(_load_input(args), eta3=args.eta3,
                             eta_inf=args.eta_inf)
    _print_json(decision.to_dict())
    return 0


def cmd_run(args) -> int:
    """Run the runners of ``args.command`` in table order (all of them for
    ``report``), each given the parsed flags that set its parameters, and
    time each one."""
    flags = vars(args)
    if "skip_negative" in flags:
        flags = dict(flags, include_negative=not args.skip_negative)
    rows, timings = [], {}
    for command, runner in experiments.RUNNERS:
        if args.command in (command, "report"):
            renamed = FLAG_FOR.get(runner.__name__, {})
            flag_of = {name: renamed.get(name, name)
                       for name in inspect.signature(runner).parameters}
            start = time.perf_counter()
            rows += runner(**{name: flags[flag]
                              for name, flag in flag_of.items() if flag in flags})
            timings[runner.__name__] = time.perf_counter() - start
    return _emit(rows, args, timings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rotquant",
        description="Composed randomized rotations for quantization: "
                    "transform, encode/decode, and verification harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--master-seed", type=int, default=DEFAULT_MASTER_SEED,
                       help=f"seed deriving all trial randomness "
                            f"(default {DEFAULT_MASTER_SEED})")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="FILE", help="write the report here")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="worker threads (result-invariant)")
        p.set_defaults(fn=cmd_run)

    p = sub.add_parser("transform", help="apply or invert a seeded rotation")
    _add_input_flags(p)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0, help="rotation seed")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--out", metavar="FILE", help="write the result vector")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("encode", help="quantize a vector to a payload file")
    _add_input_flags(p)
    p.add_argument("--mode", choices=ENCODE_MODES, required=True)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0, help="rotation seed")
    p.add_argument("--noise-seed", type=int, default=0,
                   help="stochastic rounding seed (bsq)")
    p.add_argument("--out", metavar="FILE", help="write the payload here")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="reconstruct a vector from a payload")
    p.add_argument("--in", dest="input", metavar="FILE", required=True)
    p.add_argument("--ref", metavar="FILE",
                   help="original vector file; prints this realization's vNMSE")
    p.add_argument("--out", metavar="FILE", help="write the reconstruction")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("check", help="O(d) layer-count recommendation")
    _add_input_flags(p)
    p.add_argument("--eta3", type=float, default=None,
                   help="override the third-moment threshold")
    p.add_argument("--eta-inf", dest="eta_inf", type=float, default=None,
                   help="override the max-mass threshold")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify-scalar",
                       help="Kolmogorov / Wasserstein convergence checks")
    common(p)
    p.add_argument("--gen", choices=KINDS, default="two_spike")
    p.add_argument("--dims", type=_parse_dims, default=(256, 1024, 4096))
    p.add_argument("--draws", type=int, default=1_000_000,
                   help="pooled coordinate draws per dimension")
    p.add_argument("--layers", type=int, default=2)

    p = sub.add_parser("verify-drive", help="sign-quantizer error checks")
    common(p)
    p.add_argument("--d", type=int, default=4096)
    p.add_argument("--trials", type=int, default=10_000)

    p = sub.add_parser("verify-bsq",
                       help="outlier-fraction and error-transfer checks")
    common(p)
    p.add_argument("--dims", type=_parse_dims, default=(1024, 4096))
    p.add_argument("--draws", type=int, default=1_000_000)
    p.add_argument("--transfer-d", type=int, default=1024)
    p.add_argument("--bits", type=int, default=2)
    p.add_argument("--tail-mass", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("verify-vq",
                       help="bottleneck, decorrelation, and codebook checks")
    common(p)
    p.add_argument("--dims", type=_parse_dims, default=(256, 1024, 4096))
    p.add_argument("--trials", type=int, default=10_000,
                   help="universality rotations per dimension")
    p.add_argument("--cov-trials", type=int, default=1000)
    p.add_argument("--skip-negative", action="store_true",
                   help="skip the 2-layer negative control")

    p = sub.add_parser("dme", help="distributed mean estimation simulation")
    common(p)
    p.add_argument("--d", type=int, default=4096)
    p.add_argument("--clients", type=_parse_dims, default=(1, 4, 16))
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("report", help="run every verification at full scale")
    common(p)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
