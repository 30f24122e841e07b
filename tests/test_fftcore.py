"""The hand-rolled DFT kernels against numpy's FFT."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import opsqft
from opsqft import fftcore
from opsqft.fftcore import _BLOCK, _plan, fft1, fft2
from opsqft.transform import _SPLIT_MIN

from oracle import EXTENDED, TRUTH, TRUTH_ID, signed_dft

SEED = 77103


def rand_c(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_fft1_axis_argument():
    rng = np.random.default_rng(SEED + 1)
    x = rand_c(rng, (4, 6, 5))
    for axis in range(3):
        want = np.fft.fft(x, axis=axis)
        assert np.max(np.abs(fft1(x, -1, axis=axis) - want)) < 1e-12


def check_fft2_sign_pairs(seed, sign_pairs):
    # 16 x 12 takes a power-of-two and a dense axis in one call
    rng = np.random.default_rng(seed)
    for shape in ((1, 1), (2, 3), (4, 4), (3, 5), (5, 8), (8, 6), (8, 8), (16, 12)):
        x = rand_c(rng, shape)
        for s1, s2 in sign_pairs:
            want = signed_dft(signed_dft(x, 1, s2), 0, s1)
            assert np.max(np.abs(fft2(x, s1, s2) - want)) < 1e-11


def test_fft2_matches_numpy():
    check_fft2_sign_pairs(SEED + 2, ((-1, -1), (1, 1)))


def test_fft2_mixed_signs():
    check_fft2_sign_pairs(SEED + 3, ((-1, 1), (1, -1)))


def test_round_trip():
    rng = np.random.default_rng(SEED + 5)
    for shape in ((4, 4), (3, 7), (8, 5)):
        x = rand_c(rng, shape)
        n1, n2 = shape
        back = fft2(fft2(x, -1, -1), 1, 1) / (n1 * n2)
        assert np.max(np.abs(back - x)) < 1e-12


def test_delta_and_constant_inputs():
    x = np.zeros((4, 4), dtype=complex)
    x[0, 0] = 1.0
    assert np.max(np.abs(fft2(x, -1, -1) - 1.0)) < 1e-15
    c = np.full((4, 4), 2.5 + 0j)
    got = fft2(c, -1, -1)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 2.5 * 16
    assert np.max(np.abs(got - want)) < 1e-13


def test_rejects_bad_signs():
    x = np.ones((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        fft2(x, 0, -1)
    # a bad second sign is refused before the first pass writes over its input
    y = x.copy()
    with pytest.raises(ValueError):
        fft2(y, -1, 0, out=y)
    assert np.array_equal(y, x)
    # so is an input with one axis, which fft2 has no second axis for
    v = np.arange(4, dtype=complex)
    with pytest.raises(ValueError, match=r"two axes, got shape \(4,\)"):
        fft2(v, -1, -1, out=v)
    assert np.array_equal(v, np.arange(4))
    with pytest.raises(ValueError):
        fft1(np.ones(4, dtype=complex), 2)


@pytest.mark.parametrize("x, axis", [(np.complex128(1), -1), (np.ones((3, 3), complex), 5),
                                     (np.ones((3, 3), complex), 2), (np.ones((3, 3), complex), -3)])
def test_fft1_refuses_an_axis_the_input_lacks(x, axis):
    # a 0-d input has no axis at all; refused as a ValueError, not an IndexError
    with pytest.raises(ValueError, match=rf"axis {axis} is out of range for a {x.ndim}-d input"):
        fft1(x, -1, axis)


# Dense matrices up to 64, four-step splits above, Bluestein for primes
# above 64 (67..127, 1021, 4093), and both nested (2042 = 2 * 1021).
KERNEL_LENGTHS = list(range(1, 131)) + [1000, 1021, 2042, 2310, 4093, 4096]


def rel_err(got, want):
    """Largest deviation relative to the peak of the reference."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def rms_err(got, want):
    """Largest deviation relative to the RMS of the reference."""
    return np.max(np.abs(got - want)) / np.sqrt(np.mean(np.abs(want) ** 2))


@pytest.mark.parametrize("n", KERNEL_LENGTHS)
def test_fft1_every_length_both_signs(n):
    rng = np.random.default_rng(SEED + 7 + n)
    x = rand_c(rng, n)
    assert rel_err(fft1(x, -1), np.fft.fft(x)) < 1e-14
    assert rel_err(fft1(x, +1), n * np.fft.ifft(x)) < 1e-14
    # the same length as the middle axis of a 3D array
    x = rand_c(rng, (2, n, 3))
    assert rel_err(fft1(x, -1, axis=1), np.fft.fft(x, axis=1)) < 1e-14
    assert rel_err(fft1(x, +1, axis=1), n * np.fft.ifft(x, axis=1)) < 1e-14


@pytest.mark.parametrize("n", KERNEL_LENGTHS)
def test_fft1_every_length_in_blocks_on_both_axes(n):
    # m columns of length n span at least two blocks of fft1's pass and end
    # in a ragged one: a block holds a power of two of at most _BLOCK // n
    # columns, and m is odd
    m = 2 * (_BLOCK // n) + 3
    rng = np.random.default_rng(SEED + 12 + n)
    x = rand_c(rng, (n, m))
    y = x.T.copy()
    # C-contiguous and transposed views, each with the length on both axes
    for source, axis in ((x, 0), (x.T, 1), (y, 1), (y.T, 0)):
        for sign in (-1, 1):
            got = fft1(source, sign, axis=axis)
            assert got.flags.c_contiguous
            assert rel_err(got, signed_dft(source, axis, sign)) < 1e-14


def test_fft2_prime_by_composite_mixed_signs():
    rng = np.random.default_rng(SEED + 9)
    x = rand_c(rng, (1021, 1000))
    want = np.fft.fft(1000 * np.fft.ifft(x, axis=1), axis=0)
    assert rel_err(fft2(x, -1, 1), want) < 1e-14
    want = 1021 * np.fft.ifft(np.fft.fft(x, axis=1), axis=0)
    assert rel_err(fft2(x, 1, -1), want) < 1e-14


def test_fft2_nested_by_square_four_step_mixed_signs():
    # 2042 = 2 * 1021 runs a four-step pass around Bluestein, 1024 = 32 * 32
    # one around two dense products
    rng = np.random.default_rng(SEED + 10)
    x = rand_c(rng, (2042, 1024))
    want = np.fft.fft(1024 * np.fft.ifft(x, axis=1), axis=0)
    assert rel_err(fft2(x, -1, 1), want) < 1e-14
    want = 2042 * np.fft.ifft(np.fft.fft(x, axis=1), axis=0)
    assert rel_err(fft2(x, 1, -1), want) < 1e-14


# The route of each length the tests run, for either sign: one DFT matrix
# up to 64; a four-step n = a b whose factors are both dense is "grouped"
# (65 = 5 * 13 up to 4096 = 64 * 64), while 515 = 5 * 103 and
# 8192 = 64 * 128 have a factor above 64; a longer prime takes
# Bluestein's chirp.
ROUTE_KINDS = {
    "dense": (0, 1, 2, 64),
    "grouped": (65, 70, 122, 130, 512, 1000, 1024, 4096),
    "four-step": (515, 8192),
    "chirp": (67, 131, 1021, 1031),
}


def test_plan_names_each_kind_of_route():
    for kind, lengths in ROUTE_KINDS.items():
        for n in lengths:
            for sign in (-1, 1):
                assert _plan(n, sign)[0] == kind, (n, sign)


@pytest.mark.parametrize("n", [pytest.param(n, id=f"{n}-{TRUTH_ID}")
                               for lengths in ROUTE_KINDS.values() for n in lengths if n])
def test_fft1_true_error_within_8x_numpys(n):
    # RMS errors against numpy.fft in 80-bit precision (worst measured 4.5x,
    # at 67); without an 80-bit long double, against numpy's float64 result
    x = rand_c(np.random.default_rng(SEED + 21 + n), (n, 5))
    for source, axis in ((x, 0), (x.T.copy(), 1)):
        for sign in (-1, 1):
            truth = signed_dft(source.astype(np.result_type(TRUTH, 1j)), axis, sign)
            ours, numpys = (np.sqrt(np.mean(np.abs(y - truth) ** 2) / np.mean(np.abs(truth) ** 2))
                            for y in (fft1(source, sign, axis=axis), signed_dft(source, axis, sign)))
            assert ours <= 8 * numpys if EXTENDED else ours < 1e-14


@pytest.mark.parametrize("n", KERNEL_LENGTHS)
def test_plans_are_linear_in_length(n):
    # a four-step twiddle table holds n numbers, a chirp and its padded
    # kernel under 5 n, a dense matrix at most 64^2
    for sign in (-1, 1):
        size = sum(part.nbytes for part in _plan(n, sign) if isinstance(part, np.ndarray))
        assert size <= 16 * max(64 ** 2, 5 * n)


def test_fft2_returns_c_contiguous():
    rng = np.random.default_rng(SEED + 11)
    for shape in ((1, 1), (3, 5), (70, 9), (128, 96)):
        x = rand_c(rng, shape)
        for source in (x, np.asfortranarray(x), x.T.copy().T):
            assert fft2(source, -1, 1).flags.c_contiguous


@pytest.mark.parametrize("n1, n2", [(67, 515), (129, 33), (1, 5), (67, 130)])
def test_fft2_in_place_on_interleaved_planes(n1, n2):
    # each plane of an (n1, n2, 2) stack is a strided view; both axis passes
    # span several blocks, end in a ragged one and write over their input.
    # 130 = 10 * 13 takes the row route along axis 1: 64 rows a block, the
    # last of 67 with 3
    rng = np.random.default_rng(SEED + 13)
    stack = rand_c(rng, (n1, n2, 2))
    before = stack.copy()
    for p, (s1, s2) in enumerate(((-1, 1), (1, -1))):
        plane = stack[..., p]
        assert fft2(plane, s1, s2, out=plane) is plane
        want = signed_dft(signed_dft(before[..., p], 0, s1), 1, s2)
        assert rel_err(plane, want) < 1e-14
    # the result is the same as into new arrays, bit for bit
    for p, (s1, s2) in enumerate(((-1, 1), (1, -1))):
        assert np.array_equal(stack[..., p], fft2(before[..., p], s1, s2))
    out = np.empty((n1, n2), dtype=np.complex128)
    assert fft1(before[..., 0], -1, axis=1, out=out) is out
    assert np.array_equal(out, fft1(before[..., 0], -1, axis=1))
    # any other out is refused, naming its dtype and shape, before a block is written
    for bad in (np.zeros((n1, n2)), np.zeros((n1, n2), np.complex64),
                np.zeros((n2, n1), np.complex128)):
        with pytest.raises(ValueError, match=rf"got {bad.dtype} \({bad.shape[0]}, {bad.shape[1]}\)"):
            fft1(before[..., 0], -1, axis=1, out=bad)
        assert not bad.any()


@pytest.mark.parametrize("shape, run, want", [
    ((512, 512), lambda x: fft2(x.T, -1, -1, out=x), lambda x: np.fft.fft2(x.T)),
    ((65, 1024), lambda x: fft1(x[:64], -1, axis=1, out=x[1:]),
     lambda x: np.fft.fft(x[:64], axis=1)),
    ((1024, 65), lambda x: fft1(x[:, :64], -1, axis=0, out=x[:, 1:]),
     lambda x: np.fft.fft(x[:, :64], axis=0)),
], ids=["transposed", "rows-shifted", "columns-shifted"])
def test_out_overlapping_the_input_gets_the_input_transformed(shape, run, want):
    # an out that shares memory with the input without being it: a block
    # written there must not overwrite input that a later block reads
    x = rand_c(np.random.default_rng(SEED + 19), shape)
    expected = want(x)
    assert rms_err(run(x), expected) < 1e-14


def test_standalone_fft2_runs_its_blocks_in_the_caller(monkeypatch):
    # a grid on which a transform splits its jobs over two threads: the
    # passes of a standalone fft2 run every block on the calling thread
    n1, n2 = 1031, 131
    assert n1 * n2 >= _SPLIT_MIN
    x = rand_c(np.random.default_rng(SEED + 15), (n1, n2))
    threads = []
    pass0 = fftcore._pass0

    def spy(block, sign):
        threads.append(threading.get_ident())
        return pass0(block, sign)

    monkeypatch.setattr(fftcore, "_pass0", spy)
    fft2(x, -1, 1)
    assert threads and set(threads) == {threading.get_ident()}


def test_fft1_refuses_an_out_with_no_block_view():
    # the right dtype and shape, but axis 0 of a (3, 4, 5) array cannot be
    # viewed as (1, 3, 20) in this layout: refused before a block is written
    x = rand_c(np.random.default_rng(SEED + 14), (3, 4, 5))
    bad = np.zeros((5, 4, 3), np.complex128).transpose(2, 1, 0)
    with pytest.raises(ValueError, match=r"no \(1, 3, 20\) view"):
        fft1(x, -1, axis=0, out=bad)
    assert not bad.any()


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 3), (0, 1000)])
def test_zero_length_axes_give_empty_results(shape):
    x = np.zeros(shape)
    for axis in range(len(shape)):
        for sign in (-1, 1):
            got = fft1(x, sign, axis=axis)
            assert got.shape == shape and got.dtype == np.complex128
            assert got.flags.c_contiguous
    if len(shape) == 2:
        assert fft2(x, -1, 1).shape == shape


def test_import_builds_no_plan():
    src = os.path.dirname(os.path.dirname(opsqft.__file__))
    code = "import opsqft.cli, opsqft.fftcore as f; print(f._plan.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


# The grouped lengths take the row route along a last axis
# (``_pass1_grouped``); dense lengths, primes and 515 = 5 * 103 go blocked.
ROW_ROUTE_LENGTHS = ROUTE_KINDS["grouped"]
BLOCKED_ROW_LENGTHS = (2, 64, 67, 131, 515, 1021)


def watch_row_route(monkeypatch):
    """The list of the lengths ``_pass1_grouped`` runs from here on."""
    lengths = []
    run = fftcore._pass1_grouped

    def spy(x, out, sign):
        lengths.append(x.shape[1])
        return run(x, out, sign)

    monkeypatch.setattr(fftcore, "_pass1_grouped", spy)
    return lengths


@pytest.mark.parametrize("n", ROW_ROUTE_LENGTHS + BLOCKED_ROW_LENGTHS)
def test_row_route_takes_two_dense_factors_only(n, monkeypatch):
    # rows of a C-contiguous array and of a transposed view (strided along
    # the axis), in three blocks of rows with a partial last one, and an
    # (n, 1) column along axis 0, which has one sample after the axis too
    lengths = watch_row_route(monkeypatch)
    rows = 2 * fftcore._block_columns(n) + 3
    rng = np.random.default_rng(SEED + 17 + n)
    x = rand_c(rng, (rows, n))
    for source, axis in ((x, 1), (x.T.copy().T, 1), (x[:1].T, 0)):
        for sign in (-1, 1):
            assert rms_err(fft1(source, sign, axis=axis), signed_dft(source, axis, sign)) < 1e-14
    assert lengths == [n] * 6 * (n in ROW_ROUTE_LENGTHS)


def test_row_route_in_place_gives_the_out_of_place_bits(monkeypatch):
    # a plane of an interleaved stack, its rows strided: written over
    # itself, into a new array and into the other plane, in two blocks and
    # a partial one, the route runs the same products, so the same bits.
    # Over itself, input and out are two views of the plane's memory
    lengths = watch_row_route(monkeypatch)
    n = 1000
    rows = 2 * fftcore._block_columns(n) + 5
    stack = rand_c(np.random.default_rng(SEED + 18), (rows, 2, n))
    plane = stack[:, 0].copy()
    want = fft1(plane, 1)
    other = stack[:, 1]
    assert fft1(stack[:, 0], 1, out=other) is other
    assert np.array_equal(other, want)
    assert np.array_equal(stack[:, 0], plane)
    fft1(stack[:, 0], 1, out=stack[:, 0])
    assert np.array_equal(stack[:, 0], want)
    assert rms_err(want, n * np.fft.ifft(plane)) < 1e-14
    assert lengths == [n] * 3
    # along axis 0, in blocks of columns, two views give the bits of one
    twin = stack.copy()
    one = twin[:, 1]
    fft1(one, -1, axis=0, out=one)
    fft1(stack[:, 1], -1, axis=0, out=stack[:, 1])
    assert np.array_equal(stack, twin)


@pytest.mark.parametrize("rows, n", [(40, 512), (100, 1000), (1000, 1000)])
def test_row_route_with_a_short_last_block_matches_numpy(rows, n):
    # 32 + 8 rows of 512, and 6 or 62 blocks of 16 rows of 1000 with a last
    # one of 4 or 8: each block's twiddles have its own height
    x = rand_c(np.random.default_rng(SEED + 20 + rows), (rows, n))
    assert rows % fftcore._block_columns(n)
    for sign in (-1, 1):
        assert rms_err(fft1(x, sign, axis=1), signed_dft(x, 1, sign)) < 1e-14
