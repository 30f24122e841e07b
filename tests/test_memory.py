"""Per-call peak memory of the FFT and the fast transforms, by tracemalloc.

The figures are deterministic: the peak rise over the level at entry,
after a warm-up call has built and cached the plans.  At 512 x 512 one
complex plane is 4 MiB, the most ``fft2`` holds beside its block scratch,
and a quaternion field 8 MiB (two planes).
"""

import tracemalloc

import numpy as np
import pytest

from opsqft.fftcore import fft2
from opsqft.fields import QuaternionField2D
from opsqft.quat import PureUnitQuaternion, norm_arr
from opsqft.split import make_context
from opsqft.transform import Family, Spectrum, TransformVariant, forward_fast, inverse_fast

N = 512
MIB = 1 << 20
PLANE = N * N * 16
FIELD = 2 * PLANE
# fft1's block scratch, about four blocks of 2^15 complex samples
SCRATCH = 2 * MIB
# in place, fft1 holds three blocks of 2^15 complex samples at once: the
# gathered block and the two stages of its four-step pass
IN_PLACE_SCRATCH = 3 * (1 << 15) * 16 + 64 * 1024
# the fast path's block scratch: fft1's, and the block of rows that is
# interleaved before its product with B overwrites it
BLOCK_SCRATCH = 4 * MIB


def traced_peak(fn):
    """Bytes by which one call of ``fn`` (after a warm-up call) raised the traced peak."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_fft2_holds_one_plane():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    # the output, which the axis-1 pass writes over the axis-0 result
    assert traced_peak(lambda: fft2(x, -1, 1)) <= PLANE + SCRATCH
    # written over its input, it holds no plane, and the twiddles are
    # multiplied in place, without a ufunc buffer
    assert traced_peak(lambda: fft2(x, -1, 1, out=x)) <= IN_PLACE_SCRATCH


@pytest.mark.parametrize("family", list(Family))
def test_fast_transforms_hold_one_field(family):
    rng = np.random.default_rng(6)
    ctx = make_context(PureUnitQuaternion(*rng.standard_normal(3)),
                       PureUnitQuaternion(*rng.standard_normal(3)))
    variant = TransformVariant(family, ctx)
    data = rng.standard_normal((N, N, 4))
    field = QuaternionField2D(data)
    spectrum = Spectrum(field, variant)
    # the rotation, both FFTs and @ B write into the output field; besides
    # it only block scratch is live (the phase-angle lines are O(N))
    limit = FIELD + BLOCK_SCRATCH
    assert traced_peak(lambda: forward_fast(variant, field)) <= limit
    assert traced_peak(lambda: inverse_fast(variant, spectrum)) <= limit


def test_norm_arr_holds_three_sample_planes():
    # hypot of two hypots: the two halves and the result, one double per
    # sample each, and no temporary the size of the input
    q = np.random.default_rng(7).standard_normal((N, N, 4))
    assert traced_peak(lambda: norm_arr(q)) <= 3 * N * N * 8 + 64 * 1024
