"""Per-call peak memory of the FFT and the fast transforms, by tracemalloc.

The figures are deterministic: the peak rise over the level at entry,
after a warm-up call has built and cached the plans.  At 512 x 512 one
complex plane is 4 MiB, the most ``fft2`` holds beside its block scratch,
and a quaternion field 8 MiB (two planes).
"""

import tracemalloc

import numpy as np
import pytest

from opsqft.cli import main
from opsqft.fftcore import fft1, fft2
from opsqft.formats import write_field
from opsqft.quat import PureUnitQuaternion, QuaternionField2D, norm_arr
from opsqft.planes import make_context
from opsqft.transform import (Family, Spectrum, TransformVariant, _pass0_grouped, forward_fast,
                              inverse_fast)

N = 512
MIB = 1 << 20
PLANE = N * N * 16
FIELD = 2 * PLANE
# bytes in one block of an axis pass, 2^14 complex samples
BLOCK = (1 << 14) * 16
# fft2 runs its passes in the calling thread.  fft1's blocked pass (axis 0
# here) holds three blocks of 2^14 complex samples at once, in place or
# not: the gathered block and the two stages of its four-step pass (0.75
# MiB).  The 64 KiB margin is for the plans and views; twice the blocks
# would not fit.
SCRATCH = 3 * BLOCK + 64 * 1024
# fft1's row route along a last axis of two dense factors (axis 1 here,
# 512 = 16 32) holds two blocks, the gathered one and one stage, and no
# ufunc buffer: every block multiplies by cached twiddles of its own
# shape.  4 KiB is for the views.
ROW_SCRATCH = 2 * BLOCK + 4 * 1024
# the fast path's scratch, on each of the two threads that transform its
# planes: first the 2^15-sample chunk of the grouped axis-0 pass (here
# 32 x 512 samples, 256 KiB), then the row route's ROW_SCRATCH on axis 1,
# and last the two-block slab of rows that is interleaved before its
# product with B overwrites it.  Measured: 1.01-1.26 MiB, as the two
# threads' stages overlap; 1.375 MiB is kept, and twice the blocks would
# not fit.
BLOCK_SCRATCH = 11 * MIB // 8
# the blocked norm passes of info and export-pgm: one block of 2^14
# samples divided by the largest component (512 KiB) and the sums of two
# consecutive blocks (128 KiB each).  Measured 0.80 MiB with the views.
NORM_SCRATCH = (1 << 14) * (32 + 2 * 8) + 128 * 1024


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
    # written over its input, it holds no plane.  The blocked pass's
    # four-step multiplies its twiddles broadcast over the block's columns,
    # so numpy allocates its 128 KiB ufunc buffer per block, below the
    # three blocks' peak
    assert traced_peak(lambda: fft2(x, -1, 1, out=x)) <= SCRATCH


@pytest.mark.parametrize("n1, n2", [(512, 512), (40, 512), (100, 1000), (1000, 1000)])
def test_row_route_holds_two_blocks_for_the_rows_present(n1, n2):
    # in place along axis 1 of a plane, the row route holds two blocks of
    # 2^14 samples and nothing else, whole blocks or a shorter last one
    # (40 = 32 + 8 rows of 512; 100 and 1000 rows of 1000 in blocks of 16,
    # the last of 4 or 8); a line of one row holds two rows, not two blocks
    rng = np.random.default_rng(9)
    x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
    assert traced_peak(lambda: fft1(x, -1, axis=1, out=x)) <= ROW_SCRATCH
    line = rng.standard_normal((1, 4 * N)).astype(np.complex128)
    assert traced_peak(lambda: fft1(line, -1, out=line)) <= 2 * line.nbytes + 4 * 1024


@pytest.mark.parametrize("axis, limit", [(1, ROW_SCRATCH), (0, SCRATCH)], ids=["axis-1", "axis-0"])
def test_a_second_view_of_the_input_is_written_in_place(axis, limit):
    # input and out are two view objects of one plane of an interleaved
    # stack, with one data pointer and strides: the pass runs in place, as
    # through one view, and copies none of the 4 MiB plane
    stack = np.random.default_rng(11).standard_normal((N, 2, N)).astype(np.complex128)
    assert traced_peak(lambda: fft1(stack[:, 0], -1, axis=axis, out=stack[:, 0])) <= limit


def test_grouped_pass_holds_one_chunk_at_any_width():
    # a transform's axis-0 pass over row groups holds one chunk of at most
    # 2^15 complex samples (512 KiB), whatever the width: here 13 x 2048
    # of a 65 x 8192 plane (8.1 MiB), 65 = 5 * 13.  The twiddles are folded
    # into a 13 x 13 matrix per group, so no ufunc buffer of the chunk's
    # size is made; the 64 KiB margin takes that matrix and the views.
    x = np.random.default_rng(8).standard_normal((65, 8192)).astype(np.complex128)
    assert traced_peak(lambda: _pass0_grouped(x, -1)) <= (1 << 15) * 16 + 64 * 1024


@pytest.mark.parametrize("family", list(Family))
def test_fast_transforms_hold_one_field(family):
    rng = np.random.default_rng(6)
    ctx = make_context(PureUnitQuaternion(*rng.standard_normal(3)),
                       PureUnitQuaternion(*rng.standard_normal(3)))
    variant = TransformVariant(family, ctx)
    data = rng.standard_normal((N, N, 4))
    field = QuaternionField2D(data)
    spectrum = Spectrum(data, variant)
    # the rotation, both FFTs and @ B write into the output field; besides
    # it only the passes' block scratch is live (the phase-angle lines are
    # O(N))
    limit = FIELD + BLOCK_SCRATCH
    assert traced_peak(lambda: forward_fast(variant, field)) <= limit
    assert traced_peak(lambda: inverse_fast(variant, spectrum)) <= limit


def test_norm_arr_holds_three_sample_planes():
    # hypot of two hypots: the two halves and the result, one double per
    # sample each, and no temporary the size of the input
    q = np.random.default_rng(7).standard_normal((N, N, 4))
    assert traced_peak(lambda: norm_arr(q)) <= 3 * N * N * 8 + 64 * 1024


@pytest.fixture(scope="module")
def field_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "a.qf2d"
    write_field(QuaternionField2D(np.random.default_rng(10).standard_normal((N, N, 4))), path)
    return path


def test_split_command_holds_the_input_and_one_part(field_file, tmp_path):
    # the read field and one part at a time, each freed once written.  The
    # margin takes the finiteness check's 64 KiB mask and the parser;
    # measured 125 KiB.  Holding both parts at once would be a third field.
    argv = ["split", "--f", "1,0,0", "--g", "0.6,0.8,0", "--in", str(field_file),
            "--out-plus", str(tmp_path / "p.qf2d"), "--out-minus", str(tmp_path / "m.qf2d")]
    assert traced_peak(lambda: main(argv)) <= 2 * FIELD + 256 * 1024


def test_info_and_export_hold_the_field_and_one_image(field_file, tmp_path, capsys):
    # info holds the read field and the norm pass's blocks; export-pgm also
    # the n1 x n2 magnitudes, which become the image.  Neither divides the
    # whole field by its largest component, which would be a second field.
    assert traced_peak(lambda: main(["info", "--in", str(field_file)])) <= FIELD + NORM_SCRATCH
    argv = ["export-pgm", "--in", str(field_file), "--out", str(tmp_path / "a.pgm")]
    assert traced_peak(lambda: main(argv)) <= FIELD + N * N * 8 + NORM_SCRATCH
    capsys.readouterr()
