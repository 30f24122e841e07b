"""Self-tests of the benchmark itself (not of the package).

    python3 -m pytest -q perfbench

They run on small grids in a few seconds and need no timed run.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _flatten(inputs):
    """Every array and byte string of a generator result, in order."""
    out = []
    for key in sorted(inputs):
        value = inputs[key]
        items = value if isinstance(value, (list, tuple)) else [value]
        for item in items:
            parts = item if isinstance(item, tuple) else (item,)
            out += [np.asarray(p).tobytes() if not isinstance(p, bytes) else p for p in parts]
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    first, again = _flatten(gen.make(workload, 5)), _flatten(gen.make(workload, 5))
    other = _flatten(gen.make(workload, 6))
    assert first == again
    assert first != other


def test_generator_keeps_the_defect_inputs():
    odd = gen.make("lib-odd", 5)
    (_, f, g), (_, nf, ng) = odd["pairs"]
    assert abs(np.linalg.norm(ng - nf) - gen.NEAR_STEP) < 1e-12
    assert 1e150 in odd["scales"] and 1e-150 in odd["scales"]
    pow2 = gen.make("lib-pow2", 5)
    names = [name for name, _, _ in pow2["pairs"]]
    assert names == ["generic-1", "generic-2", "g=f", "g=-f"]


def _small_spectrum(family="twosided"):
    import opsqft
    rng = np.random.default_rng(1)
    h = rng.standard_normal((8, 6, 4))
    f, g = gen.unit(rng.standard_normal(3)), gen.unit(rng.standard_normal(3))
    ctx = opsqft.make_context(opsqft.PureUnitQuaternion(*f), opsqft.PureUnitQuaternion(*g))
    variant = opsqft.TransformVariant(opsqft.Family(family), ctx)
    spectrum = opsqft.forward_fast(variant, opsqft.QuaternionField2D(h))
    back = opsqft.inverse_fast(variant, spectrum)
    return h, f, g, spectrum.data.copy(), back.data


@pytest.mark.parametrize("family", ["twosided", "phased", "conjc"])
def test_checker_passes_a_true_spectrum_and_catches_a_perturbed_one(family):
    h, f, g, spec, back = _small_spectrum(family)
    points = [(0, 0), (3, 5), (7, 1)]
    assert checks.sample_error(spec, family, "forward", h, f, g, points) < 1e-13
    assert checks.sample_error(back, family, "inverse", spec, f, g, points) < 1e-13
    spec[3, 5, 2] += 1e-6 * np.abs(spec).max()
    assert checks.sample_error(spec, family, "forward", h, f, g, points) > checks.TOL


def test_checker_catches_a_bad_round_trip():
    h, _, _, _, back = _small_spectrum()
    assert checks.roundtrip_error(back, h) < 1e-13
    back = back.copy()
    back[1, 1, 1] += 1e-7
    assert checks.roundtrip_error(back, h) > checks.TOL


def test_checker_catches_truncated_cli_outputs(tmp_path):
    data = np.random.default_rng(2).standard_normal((4, 5, 4))
    path = tmp_path / "f.qf2d"
    checks.write_qf2d(path, data)
    assert np.array_equal(checks.read_qf2d(path), data)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(checks.CheckFailed):
        checks.read_qf2d(path)
    pgm = tmp_path / "f.pgm"
    pgm.write_bytes(b"P5\n5 4\n255\n" + bytes([255] * 20))
    assert checks.pgm_error(pgm, (4, 5)) == 0.0
    pgm.write_bytes(b"P5\n5 4\n255\n" + bytes([255] * 19))
    with pytest.raises(checks.CheckFailed):
        checks.pgm_error(pgm, (4, 5))
    with pytest.raises(checks.CheckFailed):
        checks.info_error(b"n1 = 4\n", (4, 5))


def test_tail_percentile_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(12)))
    assert (value, beyond) == (1, 10) and abs(pct - 100 * 2 / 12) < 1e-12
    assert run.tail([3.0, 1.0])[0] == 3.0


def _op(kind, s, ok=True, err=1e-15, probe=False):
    return {"type": kind, "s": s, "samples": 100 if ok else 0, "ok": ok,
            "err": err if ok else None, "note": "" if ok else "boom", "probe": probe}


def _declared(kind):
    return {m["name"]: m["unit"] for m in run.declared()[kind]}


def test_timed_metrics_match_benchmark_json():
    payload = {
        "ops": ([_op("t.forward", 0.1 + 0.01 * i) for i in range(6)]
                + [_op("t.inverse", 0.2 + 0.01 * i) for i in range(6)]),
        "probe_ops": [_op("t.forward", 0.1, ok=False, probe=True)],
        "peak": {"peak_mb": 5.0, "by_type": {"t.forward": 5.0}},
        "ceiling": {"numpy_fft2_s": 0.01, "plane": [8, 8], "field_mb": 1.0},
    }
    metrics, record, line = run.summarize_timed(payload, 2.0)
    declared = _declared("end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert set(metrics) - set(declared) <= set(run.REPORT_ONLY)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 12
    assert metrics["fail_frac"]["value"] == 1 / 13
    assert metrics["setup_s"]["value"] == 2.0
    # the tail is p16.7 (ten of twelve beyond it), a t.forward operation
    assert metrics["op_tail_s"]["value"] == 0.11
    assert record["tail_op_types"] == {"at": "t.forward", "beyond": {"t.forward": 4, "t.inverse": 6}}
    json.dumps(line)


def _traced_payload():
    h, f, g, _, _ = _small_spectrum()
    import opsqft
    ctx = opsqft.make_context(opsqft.PureUnitQuaternion(*f), opsqft.PureUnitQuaternion(*g))
    variant = opsqft.TransformVariant(opsqft.Family.CONJUGATE, ctx)
    field = opsqft.QuaternionField2D(h)
    payload = {"untraced": [_op("c.forward", 0.2)]}
    for memory in (False, True):
        with spans.Recorder(memory=memory) as rec:
            rec.op = 0
            opsqft.inverse_fast(variant, opsqft.forward_fast(variant, field))
        payload["memory_spans" if memory else "spans"] = rec.spans
    payload["traced"] = [_op("c.forward", 0.3)]
    payload["numpy_fft2_s"] = {"8x6": 1e-5}
    return payload


def test_traced_metrics_match_benchmark_json():
    values, _, line = run.summarize_traced(_traced_payload(), 0.2)
    declared = _declared("per_layer")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert set(values) - set(declared) <= set(run.REPORT_ONLY)
    assert values["transform.forward_fast.calls"] == 1
    assert values["fftcore.fft2.calls"] == 4
    assert values["fftcore.fft1.calls"] == 8
    assert values["formats.read_field.calls"] == 0
    assert values["fftcore.fft2.peak_mb"] > 0
    # self times plus the untraced remainder add up to the traced time
    assert abs(values["trace.spans_s"] + values["trace.untraced_s"] - values["trace.busy_s"]) < 1e-9


def _bindings():
    return {(name, key): value for name, mod in sys.modules.items()
            if mod is not None and (name == "opsqft" or name.startswith("opsqft."))
            for key, value in vars(mod).items() if callable(value)}


def test_wrappers_are_installed_and_restored(monkeypatch):
    import opsqft.cli  # noqa: F401  (every target module loaded before the snapshot)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("embed", "gone"), ("gone", "main")))
    before = _bindings()
    with spans.Recorder():
        import opsqft
        assert opsqft.transform.fft2.__wrapped__ is before["opsqft.transform", "fft2"]
        assert opsqft.fftcore.fft1.__wrapped__ is before["opsqft.fftcore", "fft1"]
        assert opsqft.forward_fast.__wrapped__ is before["opsqft", "forward_fast"]
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
