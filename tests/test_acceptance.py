"""Acceptance gate: one test per required property, at full scale.

Each test prints one PASS/FAIL line (REPORT for the ungated residual)
and asserts the gated outcome, so `pytest -v` shows one verdict per
property and `-s` (or a failure) shows the measured residuals.
"""

import time

import numpy as np

from opsqft import verify
from opsqft.cli import main
from opsqft.formats import read_field
from opsqft.transform import Family, Kernel

SEED = 42


def _settle(results):
    for r in results:
        print(r.line())
    for r in results:
        if r.gated:
            assert r.passed, r.line()
    return results


def test_roundtrip_invertible_families():
    # 5 grid sizes x 20 contexts (equal, opposite, orthogonal, random
    # axis pairs) x 5 fields, both invertible families, within budget
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    results = verify.check_roundtrips(rng, verify.FULL)
    elapsed = time.monotonic() - start
    _settle(results)
    print(f"       roundtrip suite took {elapsed:.1f}s (budget 30s)")
    assert elapsed <= 30.0


def test_fast_path_matches_direct_oracle():
    rng = np.random.default_rng(SEED + 1)
    _settle(verify.check_oracle_equivalence(rng, verify.FULL))


def test_mixed_plane_products_vanish():
    rng = np.random.default_rng(SEED + 2)
    _settle(verify.check_mixed_plane_products(rng, verify.FULL))


def test_plane_determination_from_frames():
    rng = np.random.default_rng(SEED + 3)
    _settle(verify.check_plane_determination(rng, verify.FULL))


def test_phase_factor_commutation():
    rng = np.random.default_rng(SEED + 4)
    _settle(verify.check_phase_factor_commutation(rng, verify.FULL))


def test_split_part_spectrum_forms():
    rng = np.random.default_rng(SEED + 5)
    results = _settle(verify.check_split_forms(rng, verify.FULL))
    assert len([r for r in results if r.name.startswith("split-forms/")]) == 6


def test_split_forms_fail_on_swapped_plane_rule(monkeypatch):
    # plane + given cr + cl and plane - given cr - cl: every row must notice
    rule = Kernel.planes.fget
    monkeypatch.setattr(Kernel, "planes", property(lambda k: rule(k)[::-1]))
    rng = np.random.default_rng(SEED + 5)
    forms = [r for r in verify.check_split_forms(rng, verify.FULL)
             if r.name.startswith("split-forms/")]
    assert len(forms) == 6
    assert not any(r.passed for r in forms), [r.line() for r in forms]


def test_collapsed_family_structure():
    rng = np.random.default_rng(SEED + 6)
    results = _settle(verify.check_split_forms(rng, verify.FULL))
    assert [r.name for r in results if r.name.startswith("phase-angle/")] == [
        "phase-angle/axis-constancy"]
    reported = [r.name for r in verify.run_all(SEED) if not r.gated]
    assert reported == ["roundtrip/phased"]


def test_coefficient_formulas():
    rng = np.random.default_rng(SEED + 7)
    _settle(verify.check_coefficients(rng, verify.FULL))


def test_simplex_perplex_split():
    rng = np.random.default_rng(SEED + 8)
    _settle(verify.check_simplex_perplex(rng, verify.FULL))


def test_spectral_energy_preserved():
    rng = np.random.default_rng(SEED + 9)
    _settle(verify.check_energy(rng, verify.FULL))


def test_split_transform_commutation():
    # 4x6 and 67x70 grids (dense, chirp and four-step plans), scales 1e-150..1e150
    rng = np.random.default_rng(SEED + 11)
    results = _settle(verify.check_commutation(rng, verify.FULL))
    assert [r.name for r in results] == [f"commutation/{f.value}" for f in Family]


def test_commutation_fails_on_swapped_part_spectra(monkeypatch):
    # the part spectra handed back in the wrong order: every row must notice
    split_spectra = verify.split_spectra
    monkeypatch.setattr(verify, "split_spectra",
                        lambda variant, field: split_spectra(variant, field)[::-1])
    results = verify.check_commutation(np.random.default_rng(SEED + 11), verify.FULL)
    assert len(results) == 3
    assert not any(r.passed for r in results), [r.line() for r in results]


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
