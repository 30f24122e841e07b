"""The defect table: one-line source defects and the checks that must catch each.

``python tests/mutants.py`` runs a control row with no edit, then each row
of ``ROWS`` on a fresh temporary copy of ``src/``, ``tests/`` and
``pyproject.toml`` with ``old`` replaced by ``new``: pytest on the row's
``tests`` beside ``opsqft verify --seed 42``, whose ``verify_rows`` must
print FAIL.  One JSON line per row gives the checks that caught it and
those it escaped, every failed ``verify`` row and the seconds taken; the
exit status is 1 if the control fails or a row escapes a named check.
``gap`` names the ROADMAP item that will add the check a row escapes today.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

from oracle import TRUTH_ID

FFTCORE, PLANES, TRANSFORM = (f"src/opsqft/{m}.py" for m in ("fftcore", "planes", "transform"))
FFT1 = "tests/test_fftcore.py::test_fft1_every_length_both_signs"
SUITE = "tests/test_acceptance.py::test_suite_at_full_profile"
FAST, GROUPED = "tests/test_transform.py::", "test_fast_path_on_grouped_and_blocked_axis_0"
# the true-error tests, whose ids name the precision of their reference
TRUE = f"{FAST}test_true_error_of_every_route[{{}}-{TRUTH_ID}]"
FFT1_TRUE = f"tests/test_fftcore.py::test_fft1_true_error_within_8x_numpys[{{}}-{TRUTH_ID}]"
# verify's row names; ORACLE takes each family forward, then inverse
FAMILIES = ("twosided", "phased", "conjc")
ORACLE = tuple(f"oracle/{f}-{d}" for f in FAMILIES for d in ("forward", "inverse"))
SPLIT_FORMS = tuple(f"split-forms/{f}-{d}" for f in FAMILIES for d in ("forward", "inverse"))
COMMUTATION = tuple(f"commutation/{f}" for f in FAMILIES)
Row = namedtuple("Row", "name file old new tests verify_rows gap", defaults=((), (), ""))

ROWS = (
    # Kernel and thread defects: verify's grids, at most 16 x 16, run dense plans
    # only, and its commutation rows compare the transform with itself.
    Row("every _factors twiddle off by 1e-6 rad", FFTCORE,
        "return a, twiddles, _plan(a, sign)[1], _plan(n // a, sign)[1]",
        "return a, twiddles * np.exp(1e-6j), _plan(a, sign)[1], _plan(n // a, sign)[1]",
        (f"{FFT1}[1000]", f"{FAST}{GROUPED}[1024-16]", TRUE.format("70x67"), FFT1_TRUE.format(1000)),
        gap="item 21"),
    Row("row-route twiddles off by 1e-6 rad", FFTCORE,
        "block = np.repeat(twiddles[:, None, :], rows, axis=1)",
        "block = np.repeat(twiddles[:, None, :] * np.exp(1e-6j), rows, axis=1)",
        (f"{FFT1}[1000]", TRUE.format("70x67"), FFT1_TRUE.format(1000)), gap="item 21"),
    Row("chirp kernel scaled by 1/(1 + 1e-6)", FFTCORE, "kernel = _pass0(h, -1) / size",
        "kernel = _pass0(h, -1) / (size * (1 + 1e-6))",
        (f"{FFT1}[67]", f"{FFT1}[1021]", TRUE.format("70x67"), FFT1_TRUE.format(67)), gap="item 21"),
    Row("four-step twiddles off by 1e-6 rad", FFTCORE,
        "y *= q[:, :, None]  # in place: a multiply into the transpose would be buffered",
        "y *= q[:, :, None] * np.exp(1e-6j)",
        (f"{FFT1}[2042]", TRUE.format("70x67"), FFT1_TRUE.format(8192)), gap="item 21"),
    Row("32-point dense matrix scaled by 1 + 1e-6", FFTCORE,
        'return "dense", _roots(np.outer(m, m) % n, n, sign), None',
        'return "dense", _roots(np.outer(m, m) % n, n, sign) * (1 + 1e-6 * (n == 32)), None',
        (f"{FFT1}[32]", f"{FAST}{GROUPED}[1024-16]", FFT1_TRUE.format(1024)), gap="item 21"),
    Row("helper thread skips its last @ B block", TRANSFORM,
        "_halves(lambda starts: _back(planes, B, out, starts, step), range(0, n1, step), n1 * n2)",
        "_halves(lambda starts: _back(planes, B, out, starts[:-1] if starts.start else starts,"
        " step), range(0, n1, step), n1 * n2)",
        (f"{FAST}test_split_jobs_give_the_one_thread_bits",), gap="item 21"),
    Row("grouped planes written in natural row order", TRANSFORM,
        'routes.append(Route((), a, (("_pass0_grouped", signs[0]), ("fft1", signs[1], 1))))',
        'routes.append(Route((), 0, (("_pass0_grouped", signs[0]), ("fft1", signs[1], 1))))',
        (f"{FAST}{GROUPED}[1000-24]", TRUE.format("130x65")), gap="item 21"),
    # Transform defects that verify catches too.
    Row("inverse weight 1/(N1 N2 + 1)", TRANSFORM, "B = W.T / (n1 * n2) if inverse else W.T",
        "B = W.T / (n1 * n2 + 1) if inverse else W.T",
        (f"{FAST}test_round_trip_invertible_families",),
        ("roundtrip/twosided", "roundtrip/conjc", "roundtrip/phased-lines", *ORACLE[1::2])),
    Row("conjc forward left unconjugated", TRANSFORM,
        "return W, (conj_arr(B) if conjugate else B)  # conj(y @ W.T) = y @ B", "return W, B",
        (f"{FAST}test_fast_matches_direct",),
        ("roundtrip/conjc", "oracle/conjc-forward", "commutation/conjc")),
    Row("a phased line's sign flipped", TRANSFORM,
        'routes.append(Route(summed, 0, tuple(("fft1", c, i) for i, c in enumerate(signs) if c)))',
        'routes.append(Route(summed, 0, tuple(("fft1", -c, i) for i, c in enumerate(signs) if c)))',
        (f"{FAST}test_fast_matches_direct",), ORACLE[2:4]),
    Row("plane + and plane - given each other's routes", TRANSFORM,
        "return tuple(routes), _block_columns(n2)", "return tuple(routes[::-1]), _block_columns(n2)",
        (f"{FAST}test_fast_path_in_ragged_blocks[67-515]",), ("roundtrip/phased-lines", *ORACLE)),
    Row("Kernel.planes gives each plane the other's coefficients", TRANSFORM,
        "for s in (-1, 1))", "for s in (1, -1))",
        (f"{SUITE}[check_split_forms]", "src/opsqft/transform.py::opsqft.transform.Kernel.planes",
         f"{FAST}test_plan_names_each_plane_route[64-7]", TRUE.format("70x67")),
        ("roundtrip/phased-lines", *ORACLE, *SPLIT_FORMS, "phase-angle/axis-constancy")),
    Row("split_spectra returns the part spectra swapped", TRANSFORM,
        "return spectrum_plus, spectrum_minus", "return spectrum_minus, spectrum_plus",
        (f"{FAST}test_transform_commutes_with_split",), COMMUTATION),
    Row("a NaN at sample (0, 0) of every forward spectrum", TRANSFORM,
        "return Spectrum(_fast(variant, field.data, inverse=False), variant)",
        "spectrum = Spectrum(_fast(variant, field.data, inverse=False), variant);"
        " spectrum.data[0, 0, 0] = np.nan; return spectrum",
        (f"{FAST}test_fast_matches_direct",), ("roundtrip/twosided", "roundtrip/conjc",
         "roundtrip/phased-lines", *ORACLE[::2], "energy/twosided", "energy/conjc", *COMMUTATION)),
    # The checks themselves.
    Row("_Worst reads NaN as 0", "src/opsqft/verify.py",
        "*(math.inf if math.isnan(r) else float(r) for r in residuals))",
        "*(0.0 if math.isnan(r) else float(r) for r in residuals))",
        ("tests/test_acceptance.py::test_worst_reads_a_nan_as_inf",)),
    Row("finiteness check skips its last block", "src/opsqft/formats.py",
        "for start in range(0, len(samples), _BLOCK):",
        "for start in range(0, len(samples) - _BLOCK, _BLOCK):",
        ("tests/test_formats.py::test_blocked_finiteness_check_names_the_first_bad_component",)),
    # One row for each function whose own test a remaining check replaced.
    Row("minus part projected on the wrong plane", PLANES,
        "w = ctx.frame[:, :2] if sign > 0 else ctx.frame[:, 2:]",
        "w = ctx.frame[:, :2] if sign > 0 else ctx.frame[:, 1:3]",
        tuple(f"{SUITE}[check_{s}]" for s in ("mixed_plane_products", "simplex_perplex",
                                               "plane_determination")),
        ("roundtrip/phased-lines", "split/mixed-plane-products", "planes/random-frames",
         "split/phase-commutation", *SPLIT_FORMS, "phase-angle/axis-constancy",
         "split/simplex-perplex", *COMMUTATION)),
    Row("g = f flagged as g = -f", PLANES, "degenerate_sign=1 if same else -1 if opposite else 0,",
        "degenerate_sign=-1 if same else 1 if opposite else 0,",
        ("tests/test_split.py::test_equal_contexts_are_interchangeable",), ("planes/worked-frame",)),
    Row("exp_pure's sine off by 1e-9", "src/opsqft/quat.py",
        "c, s = math.cos(angle), math.sin(angle)",
        "c, s = math.cos(angle), math.sin(angle) * (1 + 1e-9)",
        (f"{SUITE}[check_phase_factor_commutation]",), ("split/phase-commutation",)),
    Row("coefficients read the basis rows in the wrong order", PLANES,
        "return np.array([b.to_array() for b in ctx.basis_plus + ctx.basis_minus])",
        "return np.array([b.to_array() for b in ctx.basis_minus + ctx.basis_plus])",
        (f"{SUITE}[check_coefficients]",), ("coefficients/worked-example",)),
    Row("coefficients by the Gram formula, which loses digits near g = +-f", PLANES,
        "return _times(data, np.linalg.inv(rows))",
        "return _times(data, (rows / (rows * rows).sum(axis=1, keepdims=True)).T)",
        (f"{SUITE}[check_coefficients]",), ("coefficients/reconstruct",)),
    Row("reconstruct weighs 1 - fg and f + g by each other's coefficient", PLANES,
        "return Quaternion.from_array(_times(np.array([q1, q2, q3, q4], dtype=np.float64), rows))",
        "return Quaternion.from_array(_times(np.array([q1, q2, q4, q3], dtype=np.float64), rows))",
        (f"{SUITE}[check_coefficients]",), ("coefficients/reconstruct",)),
    Row("frame-derived g with its sign flipped", PLANES, "g_raw = sa * a - sc * c",
        "g_raw = sc * c - sa * a", (f"{SUITE}[check_plane_determination]",),
        ("planes/random-frames", "planes/worked-frame")),
    Row("fft2 runs axis 0 twice", FFTCORE, "return fft1(mid, s2, axis=1, out=mid)",
        "return fft1(mid, s2, axis=0, out=mid)", ("tests/test_fftcore.py::test_fft2_matches_numpy",),
        ("roundtrip/twosided", "roundtrip/conjc", *ORACLE[:2], *ORACLE[4:])),
    Row("every dense matrix of the opposite sign", FFTCORE,
        'return "dense", _roots(np.outer(m, m) % n, n, sign), None',
        'return "dense", _roots(np.outer(m, m) % n, n, -sign), None',
        (f"{FFT1}[12]", f"{FFT1}[27]"), ORACLE),
)


def run(row: Row) -> dict:
    """Run the row's tests and ``verify`` on a fresh copy with its edit."""
    start, root = time.monotonic(), Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "pyproject.toml", copy)
        if row.file:
            path = copy / row.file
            path.write_text(path.read_text().replace(row.old, row.new, 1))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        pytest, verify = (subprocess.Popen([sys.executable, "-m", *argv], cwd=copy, env=env,
                                           text=True, stdout=subprocess.PIPE,
                                           stderr=subprocess.STDOUT)
                          for argv in (["pytest", "-q", "-p", "no:cacheprovider", *row.tests],
                                       ["opsqft", "verify", "--seed", "42"]))
        report, printed = pytest.communicate()[0], verify.communicate()[0]
    if pytest.returncode not in (0, 1):  # a node id that names no test, say
        raise SystemExit(f"{row.name}: pytest exited {pytest.returncode}\n{report}")
    failed = [line.split()[1] for line in report.splitlines() if line.startswith(("FAILED", "ERROR"))]
    failed_rows = [line.split()[1] for line in printed.splitlines() if line.startswith("FAIL ")]
    hits = [(t, any(f == t or f.startswith(t + "[") for f in failed)) for t in row.tests]
    hits += [(r, r in failed_rows) for r in row.verify_rows]
    return dict(row=row.name, caught=bool(failed or failed_rows or verify.returncode),
                by=[c for c, hit in hits if hit], escaped=[c for c, hit in hits if not hit],
                verify_failed=failed_rows, gap=row.gap, seconds=round(time.monotonic() - start, 1))


def main() -> int:
    every_test = tuple(dict.fromkeys(t for row in ROWS for t in row.tests))
    control = run(Row("control: no edit", "", "", "", every_test))
    del control["escaped"]  # every check, when none failed
    print(json.dumps(control), flush=True)
    ok = not control["caught"]
    for row in ROWS:
        result = run(row)
        print(json.dumps(result), flush=True)
        ok = ok and not result["escaped"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
