"""Acceptance gate: every suite in ``verify.SUITES`` at the full profile.

One test runs each suite on its own generator seeded with ``SEED``, so
a suite appended to ``SUITES`` is gated here and in ``opsqft verify``
with no other edit, and a broken suite fails its own test id alone.
Each prints its PASS/FAIL lines (REPORT for the ungated residual) and
asserts the gated outcome, so `pytest -v` shows one verdict per suite
and `-s` (or a failure) shows the measured residuals.  Each suite runs
once per session; the round-trip suite's 30 s budget is asserted on
that same run.  Beside them: the fold of a NaN residual to inf, the one
REPORT row, ``run_all``'s seeding, the names in the defect table of
mutants.py, and the CLI pipeline.  test_cli.py tests the printing and
exit codes of ``opsqft verify`` on stub suites.
"""

import functools
import inspect
import re
import time
from pathlib import Path

import numpy as np
import pytest

from opsqft import verify
from opsqft.cli import main
from opsqft.formats import read_field

from mutants import ROWS

SEED = 42


@functools.cache
def run_suite(suite):
    # each suite runs once per test session: its gate and the round-trip
    # budget below read the same run
    start = time.monotonic()
    results = suite(np.random.default_rng(SEED), verify.FULL)
    return results, time.monotonic() - start


@pytest.mark.parametrize("suite", verify.SUITES, ids=lambda suite: suite.__name__)
def test_suite_at_full_profile(suite):
    results, elapsed = run_suite(suite)
    for r in results:
        print(r.line())
    print(f"       {suite.__name__} took {elapsed:.1f}s")
    assert results
    for r in results:
        if r.gated:
            assert r.passed, r.line()
        else:
            assert r.name == "roundtrip/phased", r.line()


def test_roundtrip_invertible_families():
    # 5 grid sizes x 20 contexts (equal, opposite, orthogonal, random
    # axis pairs) x 5 fields, every family, within budget
    _, elapsed = run_suite(verify.check_roundtrips)
    print(f"       roundtrip suite took {elapsed:.1f}s (budget 30s)")
    assert elapsed <= 30.0


def test_every_check_is_a_suite():
    # a check_* function missing from SUITES would be gated nowhere
    checks = {f for name, f in inspect.getmembers(verify, inspect.isfunction)
              if name.startswith("check_")}
    assert set(verify.SUITES) == checks


def test_worst_reads_a_nan_as_inf():
    # max() would keep the residual before a NaN, and the row would pass
    worst = verify._Worst.fromkeys(["row"], 0.5)
    worst.add("row", np.nan)
    assert worst["row"] == np.inf and not worst.rows(1.0)[0].passed


def test_collapsed_family_structure():
    # the phase-angle round trip is the round-trip suite's one row
    # reported, not gated; test_suite_at_full_profile holds every other
    # suite to no REPORT row at all
    results = verify.check_roundtrips(np.random.default_rng(SEED), verify.QUICK)
    assert [r.name for r in results if not r.gated] == ["roundtrip/phased"]


@pytest.mark.parametrize("scale", [1e-310, 1e-305, 1e-302, 1e-300, 1e-170, 1e154, 1e200,
                                   1e300])
def test_relative_residual_does_not_depend_on_scale(scale):
    # a 50 % error on an 8 x 8 field reads the same at every scale: the
    # residual's RMS squares no raw component, which would leave the
    # double range (0 at 1e154, 1e130 at 1e-170), and no floor under the
    # RMS shrinks it (to 1.457e-10 at 1e-310 under a floor of 1e-300)
    h = np.random.default_rng(SEED).standard_normal((8, 8, 4))
    want = verify._relative_residual(1.5 * h, h)
    got = verify._relative_residual(scale * 1.5 * h, scale * h)
    assert got == pytest.approx(want, rel=1e-12)


def test_relative_residual_against_a_zero_reference():
    # no error reads 0; any error, the least subnormal too, reads inf
    zero = np.zeros((8, 8, 4))
    assert verify._relative_residual(zero, zero) == 0.0
    tiny = zero.copy()
    tiny[3, 5, 2] = 5e-324
    assert verify._relative_residual(tiny, zero) == np.inf


@functools.cache
def smallest_run_all(seed):
    """``run_all(seed)`` with every suite at its smallest draws, once per
    session; ``smallest_run_all.__wrapped__`` runs it again."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(verify.PROFILES, "quick", verify.Profile(
            sizes=((1, 1),), n_contexts=1, n_fields=1, pointwise=1, frames=1))
        return verify.run_all(seed)


def test_run_all_is_seeded():
    # twice at one seed: the same rows
    assert smallest_run_all(7) and smallest_run_all.__wrapped__(7) == smallest_run_all(7)


def test_defect_table_names_what_exists():
    # a refactor that moves a line, or renames a test or a row, fails here,
    # and its change mends the table
    root, rows = Path(__file__).parent.parent, {r.name for r in smallest_run_all(7)}
    for row in ROWS:
        assert (root / row.file).read_text().count(row.old) == 1, row.name
        assert set(row.verify_rows) <= rows, row.name
        for test in row.tests:
            path, name = test.split("::")
            name = name.split("[")[0].split(".")[-1]
            assert re.search(rf"^ *def {name}\(", (root / path).read_text(), re.M), test


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
