"""The benchmark's three workloads, each a closed loop with one caller.

A workload is built from the workload seed and drives rotquant only through
its public API, handing it generated inputs.  It exposes

* ``setup()`` -> list of set-up times (one per repeated set-up unit),
* ``unit(index, clock)`` -> seconds spent in the timed regions of one unit
  of work, checking every output it produced,
* ``finish(clock)`` -> work timed apart from the units (may do nothing),
* ``quality()`` -> the end-to-end quality metrics,
* ``checks`` -> bounded checks as rows for the headroom report,

and counts ``attempted`` operations and ``failed`` checks.  Unit ``i`` depends
only on ``(seed, i)``, so a traced pass can replay the units of an untraced one.

``python3 bench/workloads.py dme-setup ...`` is the separate process that
``DmeServer`` starts to make its payloads.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HALF_PI_MINUS_1 = math.pi / 2.0 - 1.0
DME_CLIENTS = 16
DME_BOUND = HALF_PI_MINUS_1 / DME_CLIENTS + 0.05  # the run_dme bound at N = 16

# 6 of 8 inputs pass the flatness scan (1 scalar layer), 2 of 8 are spiky.
KIND_PATTERN = ("dirichlet", "dirichlet", "dirichlet", "one_hot",
                "dirichlet", "dirichlet", "flat", "two_spike")


class Clock:
    """Times the benchmark's measured regions.  With a tracer, spans are
    recorded only inside those regions, tagged with the op id."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.total = 0.0
        self.last = 0.0

    def run(self, op, fn, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.op = op
            tracer.active = True
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            self.total += elapsed
            self.last = elapsed


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile, refused unless at least ten samples lie
    beyond it."""
    n = len(samples)
    if n * (100.0 - q) / 100.0 < 10:
        raise ValueError(f"p{q:g} needs 10 samples beyond it; have {n} samples")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def latency_summary(samples_s) -> dict:
    """Median and the highest of p95/p90/p75 with ten samples beyond it, in ms."""
    out = {"n": len(samples_s)}
    if not samples_s:
        return out
    out["p50_ms"] = 1e3 * float(np.median(samples_s))
    for q in (95, 90, 75):
        try:
            out[f"p{q}_ms"] = 1e3 * percentile(samples_s, q)
            break
        except ValueError:
            continue
    return out


def seed_for(rng) -> int:
    """A fresh 64-bit rotation seed with its two low bits clear, so
    ``seed XOR layer`` never equals another such seed's key."""
    return int(rng.integers(0, 1 << 62, dtype=np.uint64)) << 2


def make_input(rq, rng, kind: str, d: int) -> np.ndarray:
    """A unit-norm input; ``dirichlet`` follows ``dirichlet_random``'s law
    (random signs, symmetric Dirichlet energy) drawn from the workload seed."""
    if kind != "dirichlet":
        return rq.gen_adversarial(kind, d)
    weights = rng.exponential(size=d)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=d)
    return signs * np.sqrt(weights / weights.sum())


def vnmse(x, xhat) -> float:
    diff = xhat - x
    return float(np.dot(diff, diff) / np.dot(x, x))


def check_row(name: str, statistic: float, bound: float, floor: bool = False) -> dict:
    """A bounded check; relative headroom is the share of the bound left."""
    headroom = statistic - bound if floor else bound - statistic
    return {"check": name, "statistic": statistic, "bound": bound,
            "headroom": headroom, "relative_headroom": headroom / abs(bound)}


class Workload:
    name = ""
    max_units = None  # None: as many units as fit in the run's seconds

    def __init__(self, rq, seed: int):
        self.rq = rq
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.latencies = {}

    def expect(self, ok: bool, what: str):
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def finish(self, clock):
        pass

    def detail(self) -> dict:
        return {"latency": {k: latency_summary(v) for k, v in self.latencies.items()},
                "failures": self.failures}


class Roundtrip(Workload):
    """Single-vector ``decide_layers -> encode -> serialize -> deserialize ->
    decode`` at d = 4096, alternating DRIVE-biased, DRIVE-unbiased, BSQ and
    VQ.  Encode and decode share the op's seed, so half of all sign-plane
    requests repeat.  A unit is one op of every mode on every kind slot."""

    name = "roundtrip"
    D = 4096
    MODES = ("drive-biased", "drive-unbiased", "bsq", "vq")
    SETUP_REPEATS = 3

    def __init__(self, rq, seed):
        super().__init__(rq, seed)
        self.bsq_config = rq.BsqConfig(bits=4, tail_mass=0.01)
        self.bsq_config.levels  # build the cached grid outside timed regions
        self.codebook = None
        self.vnmse = {m: [] for m in self.MODES}
        self.latencies = {"drive": [], "bsq": [], "vq": []}
        self._group = []  # (x, xhat) of DRIVE-unbiased ops, averaged in 16s
        self.group_nmse = []

    def setup(self):
        times = []
        for _ in range(self.SETUP_REPEATS):
            start = perf_counter()
            self.codebook = self.rq.train_gaussian_codebook(4, 16, train_seed=2024)
            times.append(perf_counter() - start)
        self.codebook_error = self._gaussian_block_error()
        return times

    def _gaussian_block_error(self) -> float:
        z = np.random.default_rng([self.seed, 1]).standard_normal((20000, 4))
        c = self.codebook.centroids
        d2 = ((z[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        return float(d2.mean() / 4)

    def _op_drive(self, x, seed, mode):
        rq = self.rq
        spec = rq.RotationSpec(self.D, rq.decide_layers(x).scalar_layers, seed)
        wire = rq.serialize(rq.drive_encode(x, spec, mode))
        payload = rq.deserialize(wire)
        return wire, payload, rq.drive_decode(payload)

    def _op_bsq(self, x, seed, noise_seed):
        rq = self.rq
        spec = rq.RotationSpec(self.D, rq.decide_layers(x).scalar_layers, seed)
        wire = rq.serialize(rq.bsq_encode(x, spec, self.bsq_config, noise_seed))
        payload = rq.deserialize(wire)
        return wire, payload, rq.bsq_decode(payload)

    def _op_vq(self, x, seed):
        # VQ has no wire kind yet, so its op has no codec step.
        rq = self.rq
        spec = rq.RotationSpec(self.D, rq.decide_layers(x).vq_layers, seed)
        indices, scale = rq.vq_encode(x, spec, self.codebook)
        return None, None, rq.vq_decode(indices, scale, spec, self.codebook)

    def unit(self, index, clock):
        rng = np.random.default_rng([self.seed, 2, index])
        spent = 0.0
        for slot, kind in enumerate(KIND_PATTERN):
            for mode in self.MODES:
                x = make_input(self.rq, rng, kind, self.D)
                seed, noise_seed = seed_for(rng), seed_for(rng)
                if mode == "bsq":
                    fn, args = self._op_bsq, (x, seed, noise_seed)
                elif mode == "vq":
                    fn, args = self._op_vq, (x, seed)
                else:
                    fn, args = self._op_drive, (x, seed, mode[len("drive-"):])
                self.attempted += 1
                op = f"{self.name}/{index}/{slot}/{mode}"
                try:
                    wire, payload, xhat = clock.run(op, fn, *args)
                except Exception as exc:  # a failed op is counted, not fatal
                    self.expect(False, f"{op}: {type(exc).__name__}: {exc}")
                    continue
                spent += clock.last
                self.latencies[mode.split("-")[0]].append(clock.last)
                self._check(op, mode, x, wire, payload, xhat)
        return spent

    def _check(self, op, mode, x, wire, payload, xhat):
        ok = xhat.shape == x.shape and bool(np.all(np.isfinite(xhat)))
        self.expect(ok, f"{op}: reconstruction not finite or misshaped")
        if not ok:
            return
        if wire is not None:
            self.expect(self.rq.serialize(payload) == wire,
                        f"{op}: deserialized payload does not re-serialize identically")
        err = vnmse(x, xhat)
        self.vnmse[mode].append(err)
        lo, hi = self._band(mode)
        self.expect(lo <= err <= hi, f"{op}: vNMSE {err:.4f} outside [{lo:.4f}, {hi:.4f}]")
        if mode == "drive-unbiased":
            self._group.append((x, xhat))
            if len(self._group) == DME_CLIENTS:
                xs, xhats = (np.array(v) for v in zip(*self._group))
                diff = xhats.mean(axis=0) - xs.mean(axis=0)
                nmse = float(np.dot(diff, diff) / np.mean(np.sum(xs * xs, axis=1)))
                self.group_nmse.append(nmse)
                self.expect(nmse <= DME_BOUND, f"{op}: 16-op DME NMSE {nmse:.4f} > {DME_BOUND:.4f}")
                self._group = []

    def _band(self, mode):
        """Per-op sanity band on the realized vNMSE: wide around each
        quantizer's expected error, so only broken reconstructions fail."""
        if mode == "drive-biased":
            return 0.25, 1.0 - 2.0 / math.pi + 10.0 / math.sqrt(self.D)
        if mode == "drive-unbiased":
            return 0.40, 0.75
        if mode == "bsq":
            return 0.0, 3.0 * self.rq.expected_error_gaussian(self.bsq_config)
        return 0.5 * self.codebook_error, 1.5 * self.codebook_error

    @property
    def checks(self):
        rows = []
        biased = self.vnmse["drive-biased"]
        if biased:
            mean = float(np.mean(biased))
            rows.append(check_row("drive-biased-vnmse-upper", mean,
                                  1.0 - 2.0 / math.pi + 10.0 / math.sqrt(self.D)))
            rows.append(check_row("drive-biased-vnmse-floor", mean, 0.30, floor=True))
        if self.group_nmse:
            rows.append(check_row("dme-nmse", max(self.group_nmse), DME_BOUND))
        return rows

    def quality(self):
        drive = self.vnmse["drive-biased"] + self.vnmse["drive-unbiased"]
        return {"drive_vnmse": float(np.mean(drive)),
                "dme_nmse": float(np.mean(self.group_nmse))}

    def detail(self):
        out = super().detail()
        out["vnmse"] = {m: float(np.mean(v)) for m, v in self.vnmse.items() if v}
        return out


class DmeServer(Workload):
    """Server side of distributed mean estimation at d = 65536: each op is
    ``deserialize -> decode`` of one DRIVE-unbiased payload; each unit is a
    round that averages 16 clients.  Payload bytes come from a separate
    set-up process and every rotation seed is distinct."""

    name = "dme-server"
    D = 1 << 16
    ROUNDS = max_units = 32

    def __init__(self, rq, seed):
        super().__init__(rq, seed)
        self.latencies = {"drive-decode": []}
        self.client_vnmse = []
        self.round_nmse = []
        self.malformed = {}

    def setup(self):
        out_dir = Path.cwd() / "bench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        fd, path = tempfile.mkstemp(suffix=".npz", dir=out_dir)
        os.close(fd)
        try:
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "dme-setup",
                 "--seed", str(self.seed), "--rounds", str(self.ROUNDS), "--out", path],
                check=True, timeout=170)
            with np.load(path) as data:
                blob, offsets, times = data["wire"], data["offsets"], data["round_s"]
        finally:
            os.unlink(path)
        raw = blob.tobytes()
        self.wires = [raw[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1)]
        return [float(t) for t in times]

    def _decode(self, wire):
        return self.rq.drive_decode(self.rq.deserialize(wire))

    def unit(self, index, clock):
        wires = self.wires[index * DME_CLIENTS:(index + 1) * DME_CLIENTS]
        xhats = []
        spent = 0.0
        for c, wire in enumerate(wires):
            op = f"{self.name}/{index}/{c}"
            self.attempted += 1
            try:
                xhats.append(clock.run(op, self._decode, wire))
            except Exception as exc:
                self.expect(False, f"{op}: {type(exc).__name__}: {exc}")
                return spent
            spent += clock.last
            self.latencies["drive-decode"].append(clock.last)
        estimate = clock.run(f"{self.name}/{index}/mean", np.mean, xhats, 0)
        spent += clock.last
        xs = np.array(client_inputs(self.rq, self.seed, index, self.D))
        for c, (x, xhat) in enumerate(zip(xs, xhats)):
            err = vnmse(x, xhat)
            self.client_vnmse.append(err)
            self.expect(0.40 <= err <= 0.75, f"{self.name}/{index}/{c}: vNMSE {err:.4f}")
        diff = estimate - xs.mean(axis=0)
        nmse = float(np.dot(diff, diff) / np.mean(np.sum(xs * xs, axis=1)))
        self.round_nmse.append(nmse)
        self.expect(nmse <= DME_BOUND, f"{self.name}/{index}: NMSE {nmse:.4f} > {DME_BOUND:.4f}")
        return spent

    def finish(self, clock):
        """Malformed-bytes slice over the first round's payloads: the right
        outcome is FormatError, or bytes that re-serialize identically."""
        rng = np.random.default_rng([self.seed, 3])
        outcomes = {}
        for wire in self.wires[:DME_CLIENTS]:
            for kind, bad in malformed_variants(wire, rng):
                self.attempted += 1
                result = clock.run(f"{self.name}/malformed/{kind}", self._parse, bad)
                outcome = result if isinstance(result, str) else (
                    "canonical" if self.rq.serialize(result) == bad else "not-canonical")
                counts = outcomes.setdefault(kind, {})
                counts[outcome] = counts.get(outcome, 0) + 1
                self.expect(outcome in ("rejected", "canonical"),
                            f"malformed/{kind}: {outcome}")
        self.malformed = outcomes

    def _parse(self, data):
        try:
            return self.rq.deserialize(data)
        except self.rq.FormatError:
            return "rejected"
        except Exception as exc:
            return f"raised {type(exc).__name__}"

    @property
    def checks(self):
        if not self.round_nmse:
            return []
        return [check_row("dme-nmse", max(self.round_nmse), DME_BOUND)]

    def quality(self):
        return {"drive_vnmse": float(np.mean(self.client_vnmse)),
                "dme_nmse": float(np.mean(self.round_nmse))}

    def detail(self):
        out = super().detail()
        out["malformed"] = self.malformed
        return out


def client_inputs(rq, seed: int, round_index: int, d: int):
    """The 16 client vectors of one dme-server round, two per kind slot."""
    rng = np.random.default_rng([seed, 4, round_index])
    return [make_input(rq, rng, KIND_PATTERN[c % len(KIND_PATTERN)], d)
            for c in range(DME_CLIENTS)]


def malformed_variants(wire: bytes, rng):
    """Truncated body, bad magic, wrong version, a reserved flag bit set,
    and a flipped layer bit and log2(d) bit of the header flags."""
    flags_at = 6  # magic(4) kind(1) version(1) flags(u16, little-endian)

    def flip_flag(bit):
        b = bytearray(wire)
        flags = int.from_bytes(b[flags_at:flags_at + 2], "little") ^ (1 << bit)
        b[flags_at:flags_at + 2] = flags.to_bytes(2, "little")
        return bytes(b)

    def with_byte(pos, value):
        b = bytearray(wire)
        b[pos] = value
        return bytes(b)

    yield "truncated", wire[:int(rng.integers(1, len(wire)))]
    yield "bad-magic", with_byte(int(rng.integers(0, 4)), ord("X"))
    yield "wrong-version", with_byte(5, int(rng.integers(2, 256)))
    yield "reserved-flag", flip_flag(int(rng.integers(10, 16)))
    yield "layer-bit", flip_flag(int(rng.integers(7, 9)))
    yield "log2d-bit", flip_flag(int(rng.integers(1, 7)))


def dme_setup_main(argv):
    """Make the dme-server payloads; runs as its own process."""
    p = argparse.ArgumentParser(prog="workloads.py dme-setup")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import rotquant as rq

    d = DmeServer.D
    wires, round_s, seeds = [], [], set()
    for r in range(args.rounds):
        xs = client_inputs(rq, args.seed, r, d)
        rng = np.random.default_rng([args.seed, 5, r])
        client_seeds = [seed_for(rng) for _ in xs]
        start = perf_counter()
        for x, seed in zip(xs, client_seeds):
            spec = rq.RotationSpec(d, rq.decide_layers(x).scalar_layers, seed)
            wires.append(rq.serialize(rq.drive_encode(x, spec, "unbiased")))
        round_s.append(perf_counter() - start)
        seeds.update(client_seeds)
    if len(seeds) != len(wires):
        raise SystemExit("dme-setup: rotation seeds repeat; pick another --seed")
    offsets = np.cumsum([0] + [len(w) for w in wires])
    np.savez(args.out, wire=np.frombuffer(b"".join(wires), dtype=np.uint8),
             offsets=offsets, round_s=np.array(round_s))


class McHarness(Workload):
    """One pass of the experiments.run_* runners at reduced trial counts,
    with the workload seed as master_seed; every row must be healthy.  A unit
    is one pass.  Runners that take ``threads`` get one per CPU."""

    name = "mc-harness"
    SETUP_REPEATS = 7
    # Reduced counts at which every row, negative controls included, stays
    # healthy across seeds, small enough for several passes per run.  The
    # two-layer universality control needs the most: at 5000 trials its
    # d=1024 trend row clears its bound by under 2%, at 8000 by over 10%; its
    # dimensions stop at 1024 so that its pass share stays near half.
    RUNS = (
        ("run_drive_biased", {"trials": 500}),
        ("run_drive_unbiased", {"trials": 500, "bias_dims": (64, 256, 1024),
                                "bias_trials": (1000, 2000, 4000)}),
        ("run_dme", {"trials": 50}),
        ("run_bsq_outliers", {"draws": 200_000}),
        ("run_bsq_transfer", {"trials": 200}),
        ("run_vq_decorrelation", {"trials": 300}),
        ("run_vq_universality", {"dims": (256, 1024), "trials": 8000}),
        ("run_scalar_convergence", {"dims": (256, 1024, 4096), "draws": 200_000}),
        ("run_adaptive_soundness", {"n_inputs": 10, "draws": 200_000}),
    )

    def __init__(self, rq, seed):
        super().__init__(rq, seed)
        from rotquant import experiments
        self.experiments = experiments
        self.threads = len(os.sched_getaffinity(0))
        self.rows = []

    def setup(self):
        """Set-up a harness user pays: importing rotquant in a fresh
        interpreter, timed there, several times."""
        code = ("import time; t = time.perf_counter(); import rotquant; "
                "print(time.perf_counter() - t)")
        env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
        return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                     capture_output=True, text=True, timeout=120).stdout)
                for _ in range(self.SETUP_REPEATS)]

    def unit(self, index, clock):
        spent = 0.0
        self.rows = []
        for name, kwargs in self.RUNS:
            self.attempted += 1
            op = f"{self.name}/{index}/{name}"
            fn = getattr(self.experiments, name)
            kw = dict(kwargs, master_seed=self.seed)
            if "threads" in inspect.signature(fn).parameters:
                kw["threads"] = self.threads
            try:
                rows = clock.run(op, lambda: fn(**kw))
            except Exception as exc:
                self.expect(False, f"{op}: {type(exc).__name__}: {exc}")
                continue
            spent += clock.last
            self.latencies.setdefault(name, []).append(clock.last)
            for row in rows:
                self.expect(row.ok(), f"{op}: {row.claim} d={row.d} unhealthy")
                self.rows.append((name, row))
        return spent

    @property
    def checks(self):
        return [row_headroom(name, row) for name, row in self.rows]

    def quality(self):
        biased = [r.statistic for n, r in self.rows if r.claim == "sign-quantizer-vnmse-upper"]
        dme = [r.statistic for n, r in self.rows
               if r.claim == "dme-nmse" and r.extra.get("n_clients") == DME_CLIENTS]
        return {"drive_vnmse": float(np.mean(biased)), "dme_nmse": float(np.mean(dme))}


# Floor rows report a shortfall (0 when passing); their headroom is the
# measured value's distance above the floor, read from the row's extras.
_FLOOR_VALUES = ("vnmse", "variance_norm", "ratio")


def row_headroom(runner: str, row) -> dict:
    """``bound + slack - statistic`` (sign-flipped for negative controls)."""
    if "floor" in row.extra:
        value = next(row.extra[k] for k in _FLOOR_VALUES if k in row.extra)
        headroom, scale = value - row.extra["floor"], row.extra["floor"]
    else:
        headroom, scale = row.bound + row.slack - row.statistic, row.bound + row.slack
    if row.negative_control:
        headroom = -headroom
    return {"check": f"{runner}/{row.claim}/d={row.d}", "statistic": row.statistic,
            "bound": row.bound, "slack": row.slack, "headroom": headroom,
            "relative_headroom": headroom / abs(scale) if scale else headroom}


WORKLOADS = {w.name: w for w in (Roundtrip, DmeServer, McHarness)}


if __name__ == "__main__":
    if sys.argv[1:2] != ["dme-setup"]:
        raise SystemExit("usage: workloads.py dme-setup --seed N --rounds R --out FILE")
    dme_setup_main(sys.argv[2:])
