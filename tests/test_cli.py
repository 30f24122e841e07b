"""Drives the CLI in-process through cli.main(argv), and as a fresh process
where its whole stderr is checked."""

import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import opsqft
from opsqft import cli, transform, verify
from opsqft.cli import main
from opsqft.fields import QuaternionField2D
from opsqft.formats import read_field, write_field
from opsqft.quat import _BLOCK, PureUnitQuaternion, norm_arr
from opsqft.planes import PlaneAssignment, coefficients_arr, make_context

SEED = 68422


def write_random_field(path, rng, n1=4, n2=4):
    field = QuaternionField2D(rng.standard_normal((n1, n2, 4)))
    write_field(field, path)
    return field


def test_transform_round_trip_through_files(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    a = tmp_path / "a.qf2d"
    s = tmp_path / "s.qf2d"
    r = tmp_path / "r.qf2d"
    field = write_random_field(a, rng)
    base = ["transform", "--variant", "twosided", "--f", "1,0,0", "--g", "0,1,0"]
    assert main(base + ["--in", str(a), "--out", str(s)]) == 0
    assert main(base + ["--inverse", "--in", str(s), "--out", str(r)]) == 0
    assert np.max(np.abs(read_field(r).data - field.data)) < 1e-10


def test_transform_round_trip_of_large_samples(tmp_path):
    # a valid field of magnitude 1e9 is ordinary input, not a usage error
    rng = np.random.default_rng(SEED + 12)
    a = tmp_path / "a.qf2d"
    s = tmp_path / "s.qf2d"
    r = tmp_path / "r.qf2d"
    field = QuaternionField2D(1e9 * rng.standard_normal((5, 4, 4)))
    write_field(field, a)
    base = ["transform", "--variant", "twosided", "--f", "1,0,0", "--g", "0,1,0"]
    assert main(base + ["--in", str(a), "--out", str(s)]) == 0
    assert main(base + ["--inverse", "--in", str(s), "--out", str(r)]) == 0
    scale = float(np.sqrt(np.mean(field.data ** 2)))
    assert np.max(np.abs(read_field(r).data - field.data)) / scale < 1e-12


def test_transform_axis_of_huge_components(tmp_path):
    # 1e200,0,0 names the same axis as 1,0,0, though its squared length
    # overflows; the length of 1.5e308,1.5e308,1.5e308 overflows too
    rng = np.random.default_rng(SEED + 16)
    a = tmp_path / "a.qf2d"
    write_random_field(a, rng, 3, 5)
    for huge, plain in (("1e200,0,0", "1,0,0"), ("1.5e308,1.5e308,1.5e308", "1,1,1")):
        outs = []
        for f in (huge, plain):
            out = tmp_path / f"s{len(outs)}.qf2d"
            assert main(["transform", "--variant", "twosided", "--f", f, "--g", "0,1,0",
                         "--in", str(a), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_transform_fast_and_direct_agree(tmp_path):
    rng = np.random.default_rng(SEED + 1)
    a = tmp_path / "a.qf2d"
    write_random_field(a, rng, 3, 5)
    outs = []
    for mode in ("--fast", "--direct"):
        out = tmp_path / f"s{mode.strip('-')}.qf2d"
        rc = main(["transform", "--variant", "conjc", "--f", "0,0,1",
                   "--g", "0.6,0.8,0", mode, "--in", str(a), "--out", str(out)])
        assert rc == 0
        outs.append(read_field(out).data)
    scale = float(np.sqrt(np.mean(outs[1] ** 2)))
    assert np.max(np.abs(outs[0] - outs[1])) / scale < 1e-9


def test_split_writes_complementary_parts(tmp_path):
    # near the top of the doubles q +- f q g overflows though both parts fit:
    # at 1e308 the draws are scaled so that the largest component is 1.7e308
    for scale in (1.0, 1e308):
        rng = np.random.default_rng(SEED + 2)
        a = tmp_path / f"a{scale:g}.qf2d"
        data = rng.standard_normal((4, 4, 4))
        data *= min(scale, 1.7e308 / np.max(np.abs(data)))
        write_field(QuaternionField2D(data), a)
        plus = tmp_path / f"p{scale:g}.qf2d"
        minus = tmp_path / f"m{scale:g}.qf2d"
        rc = main(["split", "--f", "1,0,0", "--g", "0,0,1",
                   "--in", str(a), "--out-plus", str(plus), "--out-minus", str(minus)])
        assert rc == 0
        total = read_field(plus).data + read_field(minus).data
        assert np.max(np.abs(total - data)) < 1e-14 * scale


def test_planes_hand_frame_output(capsys):
    rc = main(["planes", "--a", "1,0,0", "--b", "0,1,0", "--c", "0,0,1",
               "--d", "scalar", "--assign", "minus"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "f = 0,0,-1"
    assert out[1] == "g = 0,0,1"
    assert out[2] == "degenerate = true"
    assert out[3] == "degenerate_sign = -1"


def test_planes_generic_frame_not_degenerate(capsys):
    # b mixes the scalar and the axis orthogonal to span(a, c), so the
    # derived g is not parallel to f
    r = "0.70710678118654752"
    rc = main(["planes", "--a", "1,0,0", "--b", f"{r},0,0,{r}",
               "--c", "0,1,0", f"--d=-{r},0,0,{r}", "--assign", "plus"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "degenerate = false" in out


def test_coeffs_inline_quaternion(capsys):
    rc = main(["coeffs", "--f", "1,0,0", "--g", "0,1,0", "--q", "1,2,3,4"])
    assert rc == 0
    vals = [float(t) for t in capsys.readouterr().out.split()]
    assert vals == [2.5, -0.5, -1.5, 2.5]


def test_coeffs_from_file(tmp_path, capsys):
    rng = np.random.default_rng(SEED + 3)
    a = tmp_path / "a.qf2d"
    field = write_random_field(a, rng, 2, 3)
    rc = main(["coeffs", "--f", "1,0,0", "--g", "0,1,0", "--in", str(a)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    w, x, y, z = field.data[0, 0]
    first = [float(t) for t in lines[0].split()]
    assert first == pytest.approx(
        [0.5 * (w + z), 0.5 * (x - y), 0.5 * (w - z), 0.5 * (x + y)], abs=1e-15)


def test_coeffs_file_matches_inline_for_every_sample(tmp_path, capsys):
    # the file path's one 4x4 product gives the --q path's values
    rng = np.random.default_rng(SEED + 13)
    a = tmp_path / "a.qf2d"
    field = write_random_field(a, rng, 5, 7)
    axes = ["--f", "0.3,-1,0.5", "--g", "0.2,0.7,-1.1"]
    assert main(["coeffs"] + axes + ["--in", str(a)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 35
    for line, q in zip(lines, field.data.reshape(-1, 4)):
        assert main(["coeffs"] + axes + ["--q=" + ",".join("%.17g" % c for c in q)]) == 0
        want = np.array([float(t) for t in capsys.readouterr().out.split()])
        got = np.array([float(t) for t in line.split()])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_coeffs_prints_each_value_as_17_digits(tmp_path, capsys):
    # every value as "%.17g" % value, four to a line, over more rows than
    # one write takes: -0.0, a subnormal and both ends of the range too
    rng = np.random.default_rng(SEED + 16)
    data = rng.standard_normal((130, 130, 4))
    data[0, 0] = [-0.0, 5e-324, -0.0, 0.0]
    data[0, 1] = [1e308, -1e308, 0.0, 2.5e-310]
    data[129, 129] = [-1e308, 0.0, -1e308, 1e-320]
    a = tmp_path / "a.qf2d"
    write_field(QuaternionField2D(data), a)
    assert 130 * 130 > _BLOCK
    assert main(["coeffs", "--f", "1,0,0", "--g", "0,1,0", "--in", str(a)]) == 0
    ctx = make_context(PureUnitQuaternion(1, 0, 0), PureUnitQuaternion(0, 1, 0))
    rows = coefficients_arr(ctx, data).reshape(-1, 4)
    assert capsys.readouterr().out == "".join(" ".join("%.17g" % c for c in row) + "\n"
                                              for row in rows)


def test_coeffs_requires_exactly_one_source(tmp_path, capsys):
    assert main(["coeffs", "--f", "1,0,0", "--g", "0,1,0"]) == 2
    a = tmp_path / "a.qf2d"
    write_random_field(a, np.random.default_rng(0), 1, 1)
    assert main(["coeffs", "--f", "1,0,0", "--g", "0,1,0",
                 "--q", "1,0,0,0", "--in", str(a)]) == 2


def test_coeffs_degenerate_axes_is_usage_error(capsys):
    rc = main(["coeffs", "--f", "1,0,0", "--g", "1,0,0", "--q", "1,2,3,4"])
    assert rc == 2
    assert capsys.readouterr().err


# Stub suites for the verify plumbing; the real suites are gated, one
# test id each, in test_acceptance.py.  Each stub draws its residual
# from the generator it is handed, so its line follows --seed.

def _passing(rng, profile):
    return [verify.CheckResult("stub/pass", 1e-3 * rng.random(), 1e-2)]


def _failing(rng, profile):
    return [verify.CheckResult("stub/fail", 1.0 + rng.random(), 1e-2)]


def _reported(rng, profile):
    return [verify.CheckResult("stub/report", 1.0 + rng.random(), 1e-2, gated=False)]


def _verify(monkeypatch, capsys, suites, seed):
    """(exit code, stdout lines) of ``opsqft verify`` over ``suites``."""
    monkeypatch.setattr(verify, "SUITES", suites)
    rc = main(["verify", "--seed", str(seed)])
    return rc, capsys.readouterr().out.splitlines()


def test_verify_exits_0_when_every_gated_row_passes(monkeypatch, capsys):
    suites = (_passing, _reported)
    rc, lines = _verify(monkeypatch, capsys, suites, 42)
    assert rc == 0
    assert [line.split()[:2] for line in lines[:-1]] == [["PASS", "stub/pass"],
                                                         ["REPORT", "stub/report"]]
    assert lines[-1] == "1/1 checks passed (seed 42)"


def test_verify_exits_1_when_a_gated_row_fails(monkeypatch, capsys):
    suites = (_passing, _failing, _reported)
    rc, lines = _verify(monkeypatch, capsys, suites, 42)
    assert rc == 1
    assert [line.split()[:2] for line in lines[:-1]] == [["PASS", "stub/pass"],
                                                         ["FAIL", "stub/fail"],
                                                         ["REPORT", "stub/report"]]
    assert lines[-1] == "1/2 checks passed (seed 42)"


def test_verify_output_deterministic(monkeypatch, capsys):
    suites = (_passing, _failing, _reported)
    first = _verify(monkeypatch, capsys, suites, 7)
    assert _verify(monkeypatch, capsys, suites, 7) == first
    assert _verify(monkeypatch, capsys, suites, 8) != first


@pytest.mark.parametrize("seed", ["-1", "x", "1_0", "\u0664\u0662"])
def test_verify_rejects_a_seed_numpy_cannot_take(capsys, seed):
    # rejected while parsing: exit 2 and one error line, not a traceback
    assert main(["verify", "--seed", seed]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == ["opsqft verify: error: argument --seed: "
                      f"expected a non-negative integer, got '{seed}'"]


def test_verify_profiles_are_quick_and_full(monkeypatch, capsys):
    # the names of verify.PROFILES, spelled exactly, each handed to every
    # suite; any other is refused, by the parser with exit 2 and by
    # run_all with a ValueError
    assert list(verify.PROFILES) == ["quick", "full"]
    seen = []
    monkeypatch.setattr(verify, "SUITES", (lambda rng, profile: seen.append(profile) or [],))
    for name in verify.PROFILES:
        assert cli.build_parser().parse_args(["verify", "--profile", name]).profile == name
        assert main(["verify", "--profile", name]) == 0
    assert seen == [verify.QUICK, verify.FULL]
    assert main(["verify", "--profile", "Quick"]) == 2
    with pytest.raises(ValueError, match="unknown profile 'Quick'"):
        verify.run_all(0, "Quick")


def test_parser_choices_are_the_families_and_profiles():
    # spelled out in the CLI so that its parser imports none of these modules
    assert cli.VARIANTS == tuple(f.value for f in transform.Family)
    assert cli.PROFILE_NAMES == tuple(verify.PROFILES)
    assert cli.ASSIGNMENTS == tuple(a.value for a in PlaneAssignment)
    parser = cli.build_parser()
    for family in transform.Family:
        args = parser.parse_args(["transform", "--variant", family.value, "--f", "1,0,0",
                                  "--g", "0,1,0", "--in", "a", "--out", "b"])
        assert transform.Family(args.variant) is family


def test_import_export_images(tmp_path):
    rng = np.random.default_rng(SEED + 4)
    pix = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    ppm = tmp_path / "img.ppm"
    ppm.write_bytes(b"P6\n6 4\n255\n" + pix.tobytes())
    a = tmp_path / "a.qf2d"
    assert main(["import-ppm", "--in", str(ppm), "--out", str(a)]) == 0
    got = read_field(a)
    assert got.data.shape == (4, 6, 4)
    assert np.array_equal(got.data[..., 1:], pix / 255.0)
    assert not got.data[..., 0].any()

    pgm = tmp_path / "mag.pgm"
    assert main(["export-pgm", "--in", str(a), "--out", str(pgm)]) == 0
    raw = pgm.read_bytes()
    assert raw.startswith(b"P5\n6 4\n255\n")
    assert len(raw) == len(b"P5\n6 4\n255\n") + 24

    centered = tmp_path / "cmag.pgm"
    assert main(["export-pgm", "--in", str(a), "--out", str(centered),
                 "--centered"]) == 0
    assert centered.read_bytes() != raw or (4, 6) == (1, 1)


def test_info_prints_header(tmp_path, capsys):
    unit = np.random.default_rng(SEED + 5).standard_normal((5, 7, 4))
    peak = np.max(np.sqrt(np.sum(unit * unit, axis=-1)))
    # at 1e307 the largest norm fits a double but its square does not
    for scale in (1.0, 1e307):
        a = tmp_path / f"a{scale:g}.qf2d"
        write_field(QuaternionField2D(scale * unit), a)
        assert main(["info", "--in", str(a)]) == 0
        out = capsys.readouterr().out
        assert "magic = QF2D" in out
        assert "n1 = 5" in out
        assert "n2 = 7" in out
        max_norm = float(out.split("max_norm = ")[1].split()[0])
        assert max_norm == pytest.approx(scale * peak, rel=1e-14)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_info_max_norm_is_the_largest_exact_norm(tmp_path, capsys, scale):
    # max_norm prints norm_arr's largest value bit for bit, here with the
    # two largest norms one ulp apart; at 1e308 the norm prints as inf
    rng = np.random.default_rng(SEED + 17)
    data = rng.standard_normal((131, 130, 4))
    v = 5.0 * rng.standard_normal(4)
    w = v.copy()
    w[2] = np.nextafter(v[2], 2 * v[2])
    data[7, 9], data[100, 3] = w, v
    data *= scale
    a = tmp_path / "a.qf2d"
    write_field(QuaternionField2D(data), a)
    assert main(["info", "--in", str(a)]) == 0
    assert f"max_norm = {'%.17g' % norm_arr(data).max()}\n" in capsys.readouterr().out
    data[50, 50] = [1.5e308, -1.5e308, 0.0, 0.0]
    write_field(QuaternionField2D(data), a)
    assert main(["info", "--in", str(a)]) == 0
    assert "max_norm = inf\n" in capsys.readouterr().out


def test_usage_errors_exit_2(tmp_path, capsys):
    # unknown subcommand, bad choice, malformed axis token, missing flag
    assert main(["bogus"]) == 2
    assert main(["transform", "--variant", "nope", "--f", "1,0,0",
                 "--g", "0,1,0", "--in", "x", "--out", "y"]) == 2
    assert main(["planes", "--a", "1,0", "--b", "0,1,0", "--c", "0,0,1",
                 "--d", "scalar"]) == 2
    assert main(["coeffs", "--f", "1,q,0", "--g", "0,1,0", "--q", "1,0,0,0"]) == 2
    assert main(["split", "--f", "1,0,0", "--g", "0,1,0"]) == 2
    capsys.readouterr()


def test_non_finite_quaternion_flags_are_usage_errors(capsys):
    assert main(["coeffs", "--f", "1,0,0", "--g", "0,1,0", "--q", "nan,0,0,0"]) == 2
    assert capsys.readouterr().err.startswith("opsqft: --q: non-finite")
    assert main(["planes", "--a", "1,0,0", "--b", "1,inf,0,0", "--c", "0,0,1",
                 "--d", "scalar"]) == 2
    assert capsys.readouterr().err.startswith("opsqft: --b: non-finite")


def test_internal_value_error_is_not_a_usage_error(tmp_path, monkeypatch):
    # exit 2 is for bad arguments; a fault inside the transform propagates
    a = tmp_path / "a.qf2d"
    write_random_field(a, np.random.default_rng(SEED + 15))

    def broken(variant, field):
        raise ValueError("internal fault")

    # the handler looks the transform up in its module when it runs
    monkeypatch.setattr(transform, "forward_fast", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["transform", "--variant", "twosided", "--f", "1,0,0", "--g", "0,1,0",
              "--in", str(a), "--out", str(tmp_path / "s.qf2d")])


def test_zero_axis_is_usage_error(tmp_path):
    a = tmp_path / "a.qf2d"
    write_random_field(a, np.random.default_rng(1), 1, 1)
    rc = main(["transform", "--variant", "twosided", "--f", "0,0,0",
               "--g", "0,1,0", "--in", str(a), "--out", str(tmp_path / "o.qf2d")])
    assert rc == 2


def test_io_errors_exit_3(tmp_path, capsys):
    missing = tmp_path / "missing.qf2d"
    assert main(["info", "--in", str(missing)]) == 3
    bad = tmp_path / "bad.qf2d"
    bad.write_bytes(b"not a field file")
    assert main(["info", "--in", str(bad)]) == 3
    assert main(["import-ppm", "--in", str(bad),
                 "--out", str(tmp_path / "o.qf2d")]) == 3
    capsys.readouterr()


def assert_missing_input_exit_3(tmp_path, capsys, argv, name):
    # the input's open fails: one line naming the path and the error, no
    # byte offset since none was read, and no output file
    missing = tmp_path / name
    assert main([*argv, "--in", str(missing)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"opsqft: {missing}: I/O failure: No such file or directory"]
    assert os.listdir(tmp_path) == []


def test_import_ppm_of_a_missing_file_exit_3(tmp_path, capsys):
    assert_missing_input_exit_3(tmp_path, capsys,
                                ["import-ppm", "--out", str(tmp_path / "o.qf2d")], "missing.ppm")


@pytest.mark.parametrize("command", ["info", "transform"])
def test_missing_field_file_exit_3(tmp_path, capsys, command):
    argv = {"info": ["info"],
            "transform": ["transform", "--variant", "twosided", "--f", "1,0,0", "--g", "0,1,0",
                          "--out", str(tmp_path / "o.qf2d")]}[command]
    assert_missing_input_exit_3(tmp_path, capsys, argv, "missing.qf2d")


def test_trailing_bytes_exit_3(tmp_path, capsys):
    a = tmp_path / "a.qf2d"
    write_random_field(a, np.random.default_rng(SEED + 13))
    with a.open("ab") as fh:
        fh.write(b"extra")
    assert main(["info", "--in", str(a)]) == 3
    assert "byte 528" in capsys.readouterr().err


def fresh_opsqft(argv, **kwargs):
    """``python -m opsqft argv`` in a fresh process, its output captured."""
    src = os.path.dirname(os.path.dirname(opsqft.__file__))
    return subprocess.run([sys.executable, "-m", "opsqft"] + argv, capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, **kwargs)


needs_dev_stdin = pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin here")


@needs_dev_stdin
def test_field_piped_between_commands(tmp_path, capsys):
    # a pipe has no size to check: info reads the spectrum transform writes
    # into it as it reads the same spectrum from a file
    a = tmp_path / "a.qf2d"
    s = tmp_path / "s.qf2d"
    write_random_field(a, np.random.default_rng(SEED + 19), 6, 5)
    tw = ["transform", "--variant", "twosided", "--f", "1,0,0", "--g", "0,1,0", "--in", str(a)]
    assert main(tw + ["--out", str(s)]) == 0
    assert main(["info", "--in", str(s)]) == 0
    want = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(opsqft.__file__))
    writer = subprocess.Popen([sys.executable, "-m", "opsqft"] + tw + ["--out", "/dev/stdout"],
                              stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    with writer:
        out = fresh_opsqft(["info", "--in", "/dev/stdin"], stdin=writer.stdout, text=True)
    assert writer.returncode == 0
    assert (out.returncode, out.stdout, out.stderr) == (0, want, "")


BAD_FIELDS = ["truncated", "over-long", "over-long by chunks", "huge header"]


def bad_field(tmp_path, case):
    """(bytes, message) of a .qf2d file gone wrong as ``case`` names: one
    diagnostic at the byte where it goes wrong, the same from a pipe as
    from a regular file.  The huge header's grid is never allocated, so no
    MemoryError."""
    a = tmp_path / "a.qf2d"
    write_random_field(a, np.random.default_rng(SEED + 20))
    whole = a.read_bytes()
    huge = 2 ** 32 - 1
    return {
        "truncated": (whole[:100], "byte 100: payload needs 512 bytes, got 84"),
        "over-long": (whole + b"extra", "byte 528: 5 bytes after the 512-byte payload"),
        "over-long by chunks": (whole + bytes(3 << 20),
                                "byte 528: 1048576 or more bytes after the 512-byte payload"),
        "huge header": (struct.pack("<4sIII", b"QF2D", 1, huge, huge) + whole[16:116],
                        f"byte 116: payload needs {32 * huge * huge} bytes, got 100"),
    }[case]


@needs_dev_stdin
@pytest.mark.parametrize("case", BAD_FIELDS)
def test_bad_piped_field_exit_3(tmp_path, case):
    stream, message = bad_field(tmp_path, case)
    out = fresh_opsqft(["info", "--in", "/dev/stdin"], input=stream)
    assert out.returncode == 3
    assert out.stderr.decode() == f"opsqft: /dev/stdin: {message}\n"


@pytest.mark.parametrize("case", BAD_FIELDS)
def test_bad_field_file_exit_3(tmp_path, capsys, case):
    contents, message = bad_field(tmp_path, case)
    b = tmp_path / "b.qf2d"
    b.write_bytes(contents)
    assert main(["info", "--in", str(b)]) == 3
    assert capsys.readouterr().err == f"opsqft: {b}: {message}\n"


def test_non_finite_sample_exit_3(tmp_path, capsys):
    a = tmp_path / "a.qf2d"
    s = tmp_path / "s.qf2d"
    data = np.random.default_rng(SEED + 14).standard_normal((4, 6, 4))
    data[1, 2, 3] = np.nan
    a.write_bytes(b"QF2D" + struct.pack("<III", 1, 4, 6) + data.astype("<f8").tobytes())
    assert main(["transform", "--variant", "twosided", "--f", "1,0,0",
                 "--g", "0,1,0", "--in", str(a), "--out", str(s)]) == 3
    assert "byte 296" in capsys.readouterr().err
    assert not s.exists()
    assert main(["info", "--in", str(a)]) == 3
    assert "byte 296" in capsys.readouterr().err


def test_transform_overflow_exit_3(tmp_path, capsys):
    # a finite field whose spectrum overflows: the writer refuses it, the file is never made
    a = tmp_path / "a.qf2d"
    s = tmp_path / "s.qf2d"
    write_field(QuaternionField2D(np.full((4, 4, 4), 1e308)), a)
    assert main(["transform", "--variant", "twosided", "--f", "1,0,0",
                 "--g", "0,1,0", "--in", str(a), "--out", str(s)]) == 3
    assert "byte 16" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["a.qf2d"]


def _one_diagnostic_in_fresh_process(a, s):
    """Transform ``a`` in a fresh process with the default warning filters,
    where numpy would print its overflow warnings on stderr; it must exit 3
    with the one ``opsqft:`` line and write nothing."""
    src = os.path.dirname(os.path.dirname(opsqft.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    out = subprocess.run(
        [sys.executable, "-m", "opsqft", "transform", "--variant", "twosided",
         "--f", "1,0,0", "--g", "0,1,0", "--in", str(a), "--out", str(s)],
        capture_output=True, text=True, env={**env, "PYTHONPATH": src})
    assert out.returncode == 3
    assert os.listdir(a.parent) == [a.name]
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("opsqft:"), out.stderr


def test_transform_overflow_prints_one_diagnostic(tmp_path):
    a = tmp_path / "a.qf2d"
    write_field(QuaternionField2D(np.full((4, 4, 4), 1e308)), a)
    _one_diagnostic_in_fresh_process(a, tmp_path / "s.qf2d")


def test_transform_overflow_on_two_threads(tmp_path, capsys):
    # a grid large enough for the fast path to split its jobs over the
    # helper thread: the command's error state must hold there too, in
    # process (where every warning is an error) and in a fresh one
    n1, n2 = 512, 256
    assert n1 * n2 >= transform._SPLIT_MIN
    a = tmp_path / "a.qf2d"
    s = tmp_path / "s.qf2d"
    write_field(QuaternionField2D(np.full((n1, n2, 4), 1e308)), a)
    assert main(["transform", "--variant", "twosided", "--f", "1,0,0",
                 "--g", "0,1,0", "--in", str(a), "--out", str(s)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("opsqft:") and "byte 16" in lines[0]
    assert os.listdir(tmp_path) == ["a.qf2d"]
    _one_diagnostic_in_fresh_process(a, s)


def test_overflowing_norm_is_quiet(tmp_path):
    # a finite field whose largest norm exceeds the largest double: info prints
    # inf and export-pgm scales by the peak, with nothing from numpy on stderr
    a = tmp_path / "a.qf2d"
    data = np.zeros((2, 2, 4))
    data[0, 0] = [0.0, 1.5e308, 1.5e308, 0.0]
    write_field(QuaternionField2D(data), a)
    src = os.path.dirname(os.path.dirname(opsqft.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    runs = {argv[0]: subprocess.run([sys.executable, "-m", "opsqft"] + argv, capture_output=True,
                                    text=True, env={**env, "PYTHONPATH": src})
            for argv in (["info", "--in", str(a)],
                         ["export-pgm", "--in", str(a), "--out", str(tmp_path / "a.pgm")])}
    for command, out in runs.items():
        assert (out.returncode, out.stderr) == (0, ""), command
    assert "max_norm = inf\n" in runs["info"].stdout
    assert (tmp_path / "a.pgm").read_bytes() == b"P5\n2 2\n255\n" + bytes([255, 0, 0, 0])


def test_invalid_frame_exit_2(capsys):
    rc = main(["planes", "--a", "1,0,0", "--b", "1,0,0", "--c", "0,0,1",
               "--d", "scalar"])
    assert rc == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["planes", "--a", "1,0,0", "--b", "1,0,0", "--c", "0,0,1", "--d", "scalar"],
     "a and b not orthogonal: inner = 1.0"),
    (["coeffs", "--f", "1,0,0", "--g", "1,0,0", "--q", "1,2,3,4"],
     "coefficients need g != +-f"),
], ids=["planes", "coeffs"])
def test_plane_refusal_exit_2_in_fresh_process(argv, message):
    # in process the plane module is always loaded; a command process loads
    # it only in the handler that raises
    out = fresh_opsqft(argv, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"opsqft: {message}\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# one valid command per subcommand that takes a quaternion flag; the input
# files are never read, since every flag is parsed first
QUATERNION_COMMANDS = {
    "transform": ["transform", "--variant", "twosided", "--f", "1,0,0", "--g", "0,1,0",
                  "--in", "missing.qf2d", "--out", "out.qf2d"],
    "split": ["split", "--f", "1,0,0", "--g", "0,1,0", "--in", "missing.qf2d",
              "--out-plus", "plus.qf2d", "--out-minus", "minus.qf2d"],
    "coeffs": ["coeffs", "--f", "1,0,0", "--g", "0,1,0", "--q", "1,2,3,4"],
    "planes": ["planes", "--a", "1,0,0", "--b", "0,1,0", "--c", "0,0,1", "--d", "scalar"],
}


@pytest.mark.parametrize("command, flag", [
    *((c, f) for c in ("transform", "split", "coeffs") for f in ("--f", "--g")),
    ("coeffs", "--q"),
    *(("planes", "--" + n) for n in "abcd"),
])
def test_bad_quaternion_flag_names_the_flag(tmp_path, monkeypatch, capsys, command, flag):
    # an axis takes three reals, --q four, a frame entry three or four: a
    # wrong count, a word that is not a plain ASCII real (float() reads 1_0
    # and a full-width 1) and a NaN are usage errors
    monkeypatch.chdir(tmp_path)
    if flag == "--q":
        bad = ["1,2,3", "1,2,3,4,5", "1,x,3,4", "1_0,2,3,4", "\uff11,2,3,4", "nan,0,0,0"]
    elif flag in ("--f", "--g"):
        bad = ["1,0", "1,0,0,0", "1,x,0", "1_0,0,0", "\uff11,0,0", "nan,0,0"]
    else:
        bad = ["1,0", "1,0,0,0,0", "1,x,0", "1_0,0,0", "\uff11,0,0,0", "nan,0,0,0"]
    argv = QUATERNION_COMMANDS[command]
    for text in bad:
        i = argv.index(flag) + 1
        assert main(argv[:i] + [text] + argv[i + 1:]) == 2, text
        assert capsys.readouterr().err.startswith(f"opsqft: {flag}: "), text
    assert os.listdir(tmp_path) == []


def test_quaternion_words_are_plain_ascii_reals(capsys):
    base = ["coeffs", "--g", "0,1,0", "--q", "1,2,3,4", "--f"]
    for word in ("1_0", "\uff11"):
        assert main(base + [word + ",0,0"]) == 2
        assert capsys.readouterr().err == f"opsqft: --f: cannot parse '{word}' as a real number\n"
    # signs, points, exponents and spaces around a word are still reals
    assert main(base + ["1,0,0"]) == 0
    want = capsys.readouterr().out
    assert main(base + [" +1.0e0, -0., 0 "]) == 0
    assert capsys.readouterr().out == want
    assert main(base + ["inf,0,0"]) == 2
    assert capsys.readouterr().err == "opsqft: --f: axis direction undefined: (inf, 0.0, 0.0)\n"


def test_quaternion_flag_count_diagnostics(capsys):
    assert main(["coeffs", "--f", "1,0,0", "--g", "0,1,0", "--q", "1,2,3"]) == 2
    assert capsys.readouterr().err == (
        "opsqft: --q: expected four comma-separated reals, got '1,2,3'\n")
    assert main(["planes", "--a", "1,0", "--b", "0,1,0", "--c", "0,0,1",
                 "--d", "scalar"]) == 2
    assert capsys.readouterr().err == (
        "opsqft: --a: expected three or four comma-separated reals, got '1,0'\n")


def test_coeffs_source_is_one_argparse_group(tmp_path, capsys):
    # no source and both sources are refused by the parser, before --f is read
    assert main(["coeffs", "--f", "x", "--g", "0,1,0"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "opsqft coeffs: error: one of the arguments --q --in is required")
    assert main(["coeffs", "--f", "1,0,0", "--g", "0,1,0",
                 "--q", "1,0,0,0", "--in", str(tmp_path / "a.qf2d")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "opsqft coeffs: error: argument --in: not allowed with argument --q")


@pytest.mark.parametrize("command", ["transform", "split", "coeffs", "planes", "verify",
                                     "import-ppm", "export-pgm", "info"])
def test_subcommand_help_exits_zero(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: opsqft {command} ")
    if command in ("transform", "split", "coeffs"):
        # every command that takes the axes describes both
        assert re.search(r"--f F +left axis, three reals 'a,b,c'\n", out)
        assert re.search(r"--g G +right axis, three reals 'a,b,c'\n", out)
