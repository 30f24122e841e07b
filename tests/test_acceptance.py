"""Acceptance gate: every suite in ``verify.SUITES`` at the full profile.

One test runs each suite on its own generator seeded with ``SEED``, so
a suite appended to ``SUITES`` is gated here and in ``opsqft verify``
with no other edit.  Each prints its PASS/FAIL lines (REPORT for the
ungated residual) and asserts the gated outcome, so `pytest -v` shows
one verdict per suite and `-s` (or a failure) shows the measured
residuals.  Beside them: the round-trip time budget, two mutations that
every row they name must notice, the one REPORT row, and the CLI
end-to-end pipeline.
"""

import inspect
import time

import numpy as np
import pytest

from opsqft import verify
from opsqft.cli import main
from opsqft.formats import read_field
from opsqft.transform import Family, Kernel

SEED = 42


@pytest.mark.parametrize("suite", verify.SUITES, ids=lambda suite: suite.__name__)
def test_suite_at_full_profile(suite):
    results = suite(np.random.default_rng(SEED), verify.FULL)
    for r in results:
        print(r.line())
    assert results
    for r in results:
        if r.gated:
            assert r.passed, r.line()


def test_every_check_is_a_suite():
    # a check_* function missing from SUITES would be gated nowhere
    checks = {f for name, f in inspect.getmembers(verify, inspect.isfunction)
              if name.startswith("check_")}
    assert set(verify.SUITES) == checks


def test_roundtrip_invertible_families():
    # 5 grid sizes x 20 contexts (equal, opposite, orthogonal, random
    # axis pairs) x 5 fields, every family, within budget
    start = time.monotonic()
    verify.check_roundtrips(np.random.default_rng(SEED), verify.FULL)
    elapsed = time.monotonic() - start
    print(f"       roundtrip suite took {elapsed:.1f}s (budget 30s)")
    assert elapsed <= 30.0


def test_split_forms_fail_on_swapped_plane_rule(monkeypatch):
    # plane + given cr + cl and plane - given cr - cl: every row must notice
    rule = Kernel.planes.fget
    monkeypatch.setattr(Kernel, "planes", property(lambda k: rule(k)[::-1]))
    results = verify.check_split_forms(np.random.default_rng(SEED), verify.FULL)
    assert [r.name for r in results] == [
        f"split-forms/{family.value}-{direction}"
        for family in Family for direction in ("forward", "inverse")
    ] + ["phase-angle/axis-constancy"]
    assert not any(r.passed for r in results), [r.line() for r in results]


def test_commutation_fails_on_swapped_part_spectra(monkeypatch):
    # the part spectra handed back in the wrong order: every row must notice
    split_spectra = verify.split_spectra
    monkeypatch.setattr(verify, "split_spectra",
                        lambda variant, field: split_spectra(variant, field)[::-1])
    results = verify.check_commutation(np.random.default_rng(SEED), verify.FULL)
    assert [r.name for r in results] == [f"commutation/{f.value}" for f in Family]
    assert not any(r.passed for r in results), [r.line() for r in results]


def test_collapsed_family_structure():
    # the phase-angle round trip is the one row reported, not gated
    reported = [r.name for r in verify.run_all(SEED) if not r.gated]
    assert reported == ["roundtrip/phased"]


def test_cli_end_to_end(tmp_path):
    rng = np.random.default_rng(SEED + 10)
    pix = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    ppm = tmp_path / "synthetic.ppm"
    ppm.write_bytes(b"P6\n16 16\n255\n" + pix.tobytes())

    ingested = tmp_path / "in.qf2d"
    spectrum = tmp_path / "spec.qf2d"
    recovered = tmp_path / "back.qf2d"
    image = tmp_path / "card.pgm"
    axes = ["--f", "0.26726124191242438,0.53452248382484879,0.80178372573727319",
            "--g", "0,0.6,0.8"]

    assert main(["import-ppm", "--in", str(ppm), "--out", str(ingested)]) == 0
    assert main(["transform", "--variant", "twosided", *axes,
                 "--in", str(ingested), "--out", str(spectrum)]) == 0
    assert main(["transform", "--variant", "twosided", *axes, "--inverse",
                 "--in", str(spectrum), "--out", str(recovered)]) == 0
    assert main(["export-pgm", "--in", str(spectrum), "--out", str(image)]) == 0

    residual = float(np.max(np.abs(read_field(recovered).data
                                   - read_field(ingested).data)))
    ok = residual <= 1e-10
    print(f"{'PASS' if ok else 'FAIL':6s} {'cli/import-transform-recover':34s} "
          f"residual {residual:.3e}  tol 1.0e-10")
    assert ok
    assert image.read_bytes().startswith(b"P5\n16 16\n255\n")

    rc = main(["verify", "--seed", "42"])
    print(f"{'PASS' if rc == 0 else 'FAIL':6s} {'cli/verify-seed-42':34s} exit {rc}")
    assert rc == 0
