"""Tests of the benchmark's own code: tracer, percentiles, workload helpers.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import rotquant  # noqa: E402
from rotquant import experiments  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # a: [0, 10]; b and c overlap inside a (as worker threads would); d in b
    spans = [
        (0, "m.a", 0.0, 10.0, None, "op1"),
        (1, "m.b", 1.0, 4.0, 0, "op1"),
        (2, "m.c", 3.0, 6.0, 0, "op1"),
        (3, "m.d", 2.0, 3.0, 1, "op1"),
        (4, "m.b", 11.0, 12.0, None, "op2"),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})


def test_layer_metrics_aggregate_self_time_by_function_and_module():
    spans = [
        (0, "drive.drive_encode", 0.0, 1.0, None, "op"),
        (1, "core.rotate_many", 0.25, 0.75, 0, "op"),
        (2, "core.fwht", 0.5, 0.7, 1, "op"),
    ]
    m = tracer.layer_metrics(spans, tracer.Counters())
    assert m["drive.drive_encode.calls"] == (1, "count")
    assert m["drive.drive_encode.self_s"][0] == pytest.approx(0.5)
    assert m["core.rotate_many.self_s"][0] == pytest.approx(0.3)
    assert m["core.self_s"][0] == pytest.approx(0.5)
    assert m["bsq.bsq_encode.calls"] == (0, "count")
    assert m["bsq.escape_ratio"] == (0.0, "ratio")


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        workloads.percentile(list(range(199)), 95)
    assert workloads.percentile(list(range(200)), 95) == pytest.approx(189.05)
    summary = workloads.latency_summary([0.001] * 150)
    assert "p95_ms" not in summary and summary["p90_ms"] == pytest.approx(1.0)


def _rotquant_attributes():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "rotquant" or name.startswith("rotquant."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    snap["words"] = rotquant.Xoshiro256pp.__dict__["words"]
    sample = rotquant.metrics.EmpiricalSample
    snap["from_values"] = sample.__dict__["from_values"]
    return snap


def test_tracer_patches_every_import_and_restores_it():
    before = _rotquant_attributes()
    with tracer.Tracer():
        assert rotquant.vq.fwht is rotquant.core.fwht is rotquant.fwht
        assert rotquant.core.fwht is not before[("rotquant.core", "fwht")]
        assert rotquant.drive.rotate_many is rotquant.core.rotate_many
        assert rotquant.Xoshiro256pp.__dict__["words"] is not before["words"]
    after = _rotquant_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _payloads(rq):
    x = workloads.make_input(rq, np.random.default_rng(7), "dirichlet", 1024)
    cfg = rq.BsqConfig(bits=4, tail_mass=0.01)
    spec = rq.RotationSpec(1024, 2, 40)
    drive = rq.serialize(rq.drive_encode(x, spec, "unbiased"))
    bsq = rq.serialize(rq.bsq_encode(x, spec, cfg, noise_seed=9))
    return drive, bsq, rq.drive_decode(rq.deserialize(drive))


def _rows():
    rows = experiments.run_bsq_transfer(d=256, trials=20, master_seed=5)
    rows += experiments.run_scalar_convergence((64,), draws=20_000, master_seed=5,
                                               threads=2)
    return [r.to_row() for r in rows]


def test_traced_run_gives_identical_bytes_and_rows():
    plain = _payloads(rotquant), _rows()
    with tracer.Tracer() as t:
        t.active = True
        traced = _payloads(rotquant), _rows()
        t.active = False
    assert plain[0][0] == traced[0][0] and plain[0][1] == traced[0][1]
    assert np.array_equal(plain[0][2], traced[0][2])
    assert plain[1] == traced[1]
    assert {s[1] for s in t.spans} >= {"codec.serialize", "bsq.bsq_encode", "rng.words"}


def test_worker_thread_spans_are_parented_to_the_runner():
    with tracer.Tracer() as t:
        clock = workloads.Clock(t)
        clock.run("op", experiments.run_scalar_convergence, (64,), None, 40_000,
                  "two_spike", 2, 5, 2)
    runner = [s for s in t.spans if s[1] == "experiments.run_scalar_convergence"]
    assert len(runner) == 1
    assert all(s[4] is not None for s in t.spans if s is not runner[0])
    own = tracer.self_times(t.spans)
    assert sum(own.values()) == pytest.approx(clock.total, rel=0.1)


def test_malformed_variants_are_rejected_or_canonical():
    x = workloads.make_input(rotquant, np.random.default_rng(1), "dirichlet", 256)
    spec = rotquant.RotationSpec(256, 1, 8)
    wire = rotquant.serialize(rotquant.drive_encode(x, spec, "unbiased"))
    rng = np.random.default_rng(2)
    for kind, bad in workloads.malformed_variants(wire, rng):
        assert bad != wire
        if kind == "layer-bit":
            assert rotquant.serialize(rotquant.deserialize(bad)) == bad
        else:
            with pytest.raises(rotquant.FormatError):
                rotquant.deserialize(bad)
