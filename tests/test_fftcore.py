"""The hand-rolled DFT kernels against numpy's FFT."""

import os
import subprocess
import sys

import numpy as np
import pytest

import opsqft
from opsqft.fftcore import _BLOCK, _plan, fft1, fft2

SEED = 77103


def rand_c(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_fft1_matches_numpy_both_signs():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4, 5, 7, 8, 12, 16, 27, 64):
        x = rand_c(rng, n)
        assert np.max(np.abs(fft1(x, -1) - np.fft.fft(x))) < 1e-11 * max(n, 1)
        assert np.max(np.abs(fft1(x, +1) - n * np.fft.ifft(x))) < 1e-11 * max(n, 1)


def test_fft1_axis_argument():
    rng = np.random.default_rng(SEED + 1)
    x = rand_c(rng, (4, 6, 5))
    for axis in range(3):
        want = np.fft.fft(x, axis=axis)
        assert np.max(np.abs(fft1(x, -1, axis=axis) - want)) < 1e-12


def test_fft2_matches_numpy():
    rng = np.random.default_rng(SEED + 2)
    for shape in ((1, 1), (2, 3), (4, 4), (3, 5), (8, 8), (16, 12)):
        x = rand_c(rng, shape)
        n1, n2 = shape
        got = fft2(x, -1, -1)
        assert np.max(np.abs(got - np.fft.fft2(x))) < 1e-11
        got = fft2(x, 1, 1)
        assert np.max(np.abs(got - n1 * n2 * np.fft.ifft2(x))) < 1e-11


def signed_numpy(x, sign, axis):
    """numpy's transform along ``axis`` with exponent sign ``sign``."""
    if sign < 0:
        return np.fft.fft(x, axis=axis)
    return x.shape[axis] * np.fft.ifft(x, axis=axis)


def test_fft2_mixed_signs():
    rng = np.random.default_rng(SEED + 3)
    cases = [(rand_c(rng, (8, 6)), ((-1, 1), (1, -1)))]
    cases += [(rand_c(rng, shape), ((-1, -1), (1, 1), (-1, 1)))
              for shape in ((2, 3), (4, 4), (5, 8))]
    for x, sign_pairs in cases:
        for s1, s2 in sign_pairs:
            want = signed_numpy(signed_numpy(x, s2, axis=1), s1, axis=0)
            assert np.max(np.abs(fft2(x, s1, s2) - want)) < 1e-11


def test_power_of_two_and_dense_paths_agree():
    # 16 and 12 are both single DFT matrices of the one kernel; a 16x12
    # grid transforms a power-of-two and a non-power-of-two axis in one call
    rng = np.random.default_rng(SEED + 4)
    x = rand_c(rng, (16, 12))
    got = fft2(x, -1, -1)
    assert np.max(np.abs(got - np.fft.fft2(x))) < 1e-10


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
    with pytest.raises(ValueError):
        fft1(np.ones(4, dtype=complex), 2)


# Dense matrices up to 64, four-step splits above, Bluestein for primes
# above 64 (67..127, 1021, 4093), and both nested (2042 = 2 * 1021).
KERNEL_LENGTHS = list(range(1, 131)) + [1000, 1021, 2042, 2310, 4093, 4096]


def rel_err(got, want):
    """Largest deviation relative to the peak of the reference."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


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
            assert rel_err(got, signed_numpy(source, sign, axis)) < 1e-14


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


@pytest.mark.parametrize("n1, n2", [(67, 515), (129, 33), (1, 5)])
def test_fft2_in_place_on_interleaved_planes(n1, n2):
    # each plane of an (n1, n2, 2) stack is a strided view; both axis passes
    # span several blocks, end in a ragged one and write over their input
    rng = np.random.default_rng(SEED + 13)
    stack = rand_c(rng, (n1, n2, 2))
    before = stack.copy()
    for p, (s1, s2) in enumerate(((-1, 1), (1, -1))):
        plane = stack[..., p]
        assert fft2(plane, s1, s2, out=plane) is plane
        want = signed_numpy(signed_numpy(before[..., p], s1, axis=0), s2, axis=1)
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


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 3)])
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
