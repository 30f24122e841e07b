"""Complex 2D DFT with an independently chosen exponent sign per axis.

The transforms here use the convention
F[k] = sum_m x[m] * exp(i * (s1 * 2 pi m1 k1 / N1 + s2 * 2 pi m2 k2 / N2))
so s1 = s2 = -1 reproduces the usual forward DFT.  Mixed signs are
needed because the split transform kernels rotate the two planes in
opposite directions.

One kernel serves every length; it transforms the columns of a
contiguous block.  A length of at most 64 is one product with its DFT
matrix.  A longer composite length n = a b, with a the largest divisor
not above sqrt(n), runs Bailey's four-step factorization: length-b
transforms, the twiddles w^(m1 k2), a transpose within the block and
length-a transforms, which leaves the output in natural order.  A
longer prime length runs Bluestein's chirp-z transform, a circular
convolution of power-of-two length evaluated by the same kernel.  The
DFT matrices, twiddles and chirps are built on first use and cached per
(length, sign); every angle is reduced exactly in integers before
``exp``.

An axis pass of ``fft1`` gathers blocks of about 2^14 samples along the
axis, runs the kernel on each in the calling thread and writes it
straight into the output, so no array is ever transposed whole.
``fft2`` holds one new plane, the output that both passes write, or none
when it is given an output to write (the input itself, say), plus the
scratch of a few blocks: 0.75 MiB, or up to about 2.25 MiB on a
Bluestein axis, whose padded buffer is two to four times the block.

Where the length n = a b is a four-step with both factors dense (65,
130, 512, 1000, 1024, 4096, ...), two passes skip the kernel's blocks.
Along a last axis, the axis along each row, ``fft1`` takes the row
route ``_pass1_grouped``: a block of rows is gathered once as (b, rows,
a), in runs of a samples, each stage is one product over the whole
block, Mb on the left and Ma on the right with the twiddles between, and
the block is written back in natural order, beside two blocks of
scratch.  A transform's axis 0 runs ``_pass0_grouped``:
``transform._fast`` writes each plane's rows in the four-step's input
order, row b m1 + m2 from input a m2 + m1, which its rotation reads out
of place at no cost, so the two stages run in place over groups of rows,
each group's twiddles folded into its stage-1 matrix, with no gather,
transpose or copy of blocks, beside a scratch of at most 2^15 samples
(512 KiB).  Its axis 1 is a last axis.  ``transform._fast`` transforms
its two planes on two threads, so a transform holds twice one pass's
scratch.

``_halves`` runs the independent jobs of a transform, its two planes and
then the row blocks of its last product, on a grid of at least 2^17
samples: the second half on a helper thread, the first in the caller.
The results are the same bits either way: a job's output does not
depend on the thread that runs it.  Before its first split, ``_halves``
sets numpy's bundled OpenBLAS to one thread for the rest of the process,
so the two threads are the only ones: OpenBLAS's own threads, which the
block products would otherwise spread over both cores, gain nothing
beside a second Python thread and stall when another process takes a
core.  The count is not set back after a split, since the BLAS worker
that an earlier product of the caller left spinning would then take
back the second core.  Where no count was set (numpy uses another BLAS,
or keeps its OpenBLAS elsewhere), ``_halves`` runs every job in the
caller.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import threading
from collections.abc import Sequence
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

TAU = 2.0 * np.pi

# Lengths up to this are a single dense DFT matrix product.
_DENSE_MAX = 64
# Most (length, sign) plans kept at once.  A plan holds at most 5 n
# complex numbers, or 64^2 for a dense one.
_PLAN_CACHE = 64
# Samples in one block of an axis pass (256 KiB): enough columns for
# BLAS-sized products, few enough that the blocks and the kernel's scratch
# of both threads stay in cache and the pass needs no transposed copy of
# the array.
_BLOCK = 1 << 14
# Samples in the scratch of ``_pass0_grouped`` (512 KiB): whole rows of a
# 1024-wide plane for one group of 32 rows.
_GROUP = 1 << 15
# Fewest samples in a grid whose jobs are split over two threads: below
# it (320 x 320, say) the helper's start and the two threads' turns at the
# interpreter lock cost more than the half it takes.
_SPLIT_MIN = 1 << 17
# Where numpy's Linux wheels keep their bundled OpenBLAS.
_BLAS_LIBS = Path(np.__file__).parent.parent / "numpy.libs"


def _check_sign(s: int) -> int:
    if s not in (-1, 1):
        raise ValueError(f"axis sign must be +1 or -1, got {s!r}")
    return s


def _roots(j: np.ndarray, n: int, sign: int) -> np.ndarray:
    """Read-only exp(sign * 2 pi i j / n) for integers j already reduced mod n."""
    w = np.exp(sign * 1j * TAU * j / n)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=_PLAN_CACHE)
def _plan(n: int, sign: int):
    """What ``_pass0`` needs for length n, labelled with its method.

    ("dense", M, None): M[k, m] = w^(m k), w = exp(sign 2 pi i / n).
    ("four-step", a, T): n = a b and T[k2, m1] = w^(m1 k2) for k2 < b, m1 < a.
    ("chirp", c, K): c[m] = exp(sign pi i m^2 / n) as a column, and K the
    power-of-two length transform of the conjugate chirp, divided by its
    length, as a column.
    """
    if n <= _DENSE_MAX:
        m = np.arange(n)
        return "dense", _roots(np.outer(m, m) % n, n, sign), None
    a = math.isqrt(n)
    while n % a:
        a -= 1
    if a > 1:
        k2, m1 = np.ogrid[:n // a, :a]
        return "four-step", a, _roots(m1 * k2 % n, n, sign)
    size = 1 << (2 * n - 2).bit_length()
    m = np.arange(n, dtype=np.int64)
    chirp = _roots(m * m % (2 * n), 2 * n, sign)
    h = np.zeros((size, 1), dtype=np.complex128)
    h[:n, 0] = chirp.conj()
    h[size - n + 1:, 0] = chirp[:0:-1].conj()
    kernel = _pass0(h, -1) / size
    kernel.flags.writeable = False
    return "chirp", chirp[:, None], kernel


def _block_columns(n: int) -> int:
    """Columns of length n per block: a power of two near _BLOCK / n, so
    every block but the last has one shape.  (On OpenBLAS's SkylakeX
    kernels a column's bits then do not depend on its block; its Haswell
    kernels make no such promise.)"""
    return 1 << max(1, _BLOCK // max(n, 1)).bit_length() - 1


@cache
def _pin_blas() -> bool:
    """Set numpy's bundled OpenBLAS, if there is one, to one thread, and
    say whether a count was set."""
    pinned = False
    for path in _BLAS_LIBS.glob("libscipy_openblas64_*"):
        try:
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        pinned = True
    return pinned


def _halves(run, jobs: Sequence, samples: int) -> None:
    """``run(jobs)`` for independent jobs over a grid of ``samples`` samples.

    From _SPLIT_MIN samples, once ``_pin_blas`` has set the BLAS to one
    thread, the second half of the jobs runs on a helper thread and the
    first in the caller; otherwise ``run`` takes them all in the caller.
    Each call starts its own helper, in a copy of the caller's context, so
    numpy's error state (a context variable) holds there too; it is joined
    before the call returns, and an exception it raised is raised here.
    """
    if len(jobs) < 2 or samples < _SPLIT_MIN or not _pin_blas():
        run(jobs)
        return
    half = len(jobs) // 2
    raised = []

    def second():
        try:
            run(jobs[half:])
        except BaseException as e:  # re-raised in the caller
            raised.append(e)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(second,))
    helper.start()
    try:
        run(jobs[:half])
    finally:
        helper.join()
    if raised:
        raise raised[0]


def _pass0(x: np.ndarray, sign: int) -> np.ndarray:
    """Signed transform along axis 0 of a C-contiguous (n, r) complex array."""
    n, r = x.shape
    kind, p, q = _plan(n, sign)
    if kind == "dense":
        return p @ x
    if kind == "four-step":
        # input index a m2 + m1, output index k2 + b k1
        a, b = p, n // p
        y = _pass0(x.reshape(b, a * r), sign).reshape(b, a, r)
        y *= q[:, :, None]  # in place: a multiply into the transpose would be buffered
        z = np.ascontiguousarray(y.transpose(1, 0, 2))
        del y  # free the first pass before the second allocates its output
        return _pass0(z.reshape(a, b * r), sign).reshape(n, r)
    # w^(m k) = c[m] c[k] conj(c[k - m]): a convolution with the conjugate chirp
    y = np.zeros((q.shape[0], r), dtype=np.complex128)
    np.multiply(x, p, out=y[:n])
    y = _pass0(y, -1)
    y *= q
    y = _pass0(y, 1)[:n]
    y *= p
    return y


def _grouped(n: int, sign: int) -> int:
    """a when length n is a four-step n = a b with b (so a) dense, else 0."""
    if n <= _DENSE_MAX:
        return 0
    kind, a, _ = _plan(n, sign)
    return a if kind == "four-step" and n // a <= _DENSE_MAX else 0


def _pass0_grouped(x: np.ndarray, sign: int) -> None:
    """Signed transform along axis 0 of an (n, r) complex array in place,
    n = a b with a = ``_grouped(n, sign)``, whose row b m1 + m2 holds input
    a m2 + m1: the four-step of ``_pass0`` with its transpose left to the
    writer of x.  Afterwards row k holds output k.

    Each contiguous group of b rows (one m1) is multiplied by the stage-1
    matrix with its twiddles folded in, diag(T[:, m1]) Mb, into a scratch
    and copied back; then each strided group of a rows (one k2) by Ma.  The
    columns go in chunks of at most _GROUP / b.
    """
    n, r = x.shape
    _, a, twiddles = _plan(n, sign)
    b = n // a
    ma, mb = _plan(a, sign)[1], _plan(b, sign)[1]
    groups = x.view()
    groups.shape = (a, b, r)  # never a copy, unlike reshape
    w = 1 << (_GROUP // b).bit_length() - 1  # a power of two, as in _block_columns
    z = np.empty((b, min(w, r)), dtype=np.complex128)
    d = np.empty((b, b), dtype=np.complex128)
    for j in range(0, r, w):
        cols = slice(j, j + w)
        s = z[:, :min(w, r - j)]
        for m1 in range(a):
            np.multiply(twiddles[:, m1, None], mb, out=d)
            np.matmul(d, groups[m1, :, cols], out=s)
            groups[m1, :, cols] = s
        for k2 in range(b):
            np.matmul(ma, groups[:, k2, cols], out=s[:a])
            groups[:, k2, cols] = s[:a]


def _pass1_grouped(x: np.ndarray, out: np.ndarray, sign: int) -> None:
    """Signed transform along axis 1 of an (r, n) complex array into
    ``out`` of its shape, which may be x itself, n = a b with a =
    ``_grouped(n, sign)``: the four-step of ``_pass0`` on rows.

    Each block of ``_block_columns(n)`` rows, input index a m2 + m1, is
    gathered once as (b, rows, a) in runs of a samples, multiplied by Mb
    on the left in one product, by the twiddles T[k2, m1], and by Ma on the
    right in one product, which leaves (k2, row, k1) for output k2 + b k1;
    then it is written back in natural order.  The two blocks of scratch
    are sized to the rows present.
    """
    r, n = x.shape
    _, a, twiddles = _plan(n, sign)
    b = n // a
    ma, mb = _plan(a, sign)[1], _plan(b, sign)[1]
    src, dst = x.reshape(r, b, a), out.view()
    dst.shape = (r, a, b)  # never a copy, unlike reshape
    k = min(_block_columns(n), r) or 1
    g, y = np.empty((2, n * k), dtype=np.complex128)
    for i in range(0, r, k):
        rows = min(k, r - i)
        gathered = g[:n * rows].reshape(b, rows, a)
        stage = y[:n * rows].reshape(b, rows, a)
        np.copyto(gathered, src[i:i + rows].transpose(1, 0, 2))
        np.matmul(mb, gathered.reshape(b, rows * a), out=stage.reshape(b, rows * a))
        stage *= twiddles[:, None, :]
        np.matmul(stage.reshape(b * rows, a), ma, out=gathered.reshape(b * rows, a))
        np.copyto(dst[i:i + rows], gathered.transpose(1, 2, 0))


def fft1(x: np.ndarray, sign: int, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Signed 1D transform of a complex array along ``axis``.

    The result is written block by block, beside a few blocks of scratch
    (O(n) once n exceeds one), into ``out``: a new C-contiguous array by
    default, or a given complex128 array of the input's shape (any other
    raises ValueError), which may be the input itself (a block is read
    whole before it is written).  The blocks run in the calling thread.
    Along a last axis (one sample after it) whose length is a four-step of
    two dense factors, they are blocks of rows (``_pass1_grouped``);
    otherwise, blocks of the kernel's columns.
    """
    _check_sign(sign)
    ndim = np.ndim(x)
    if not -ndim <= axis < ndim:
        raise ValueError(f"axis {axis} is out of range for a {ndim}-d input")
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[axis]
    axis %= x.ndim
    pre, post = math.prod(x.shape[:axis]), math.prod(x.shape[axis + 1:])
    if out is None:
        out = np.empty(x.shape, dtype=np.complex128)
    elif out.dtype != np.complex128 or out.shape != x.shape:
        raise ValueError(f"out must be complex128 of shape {x.shape}, got {out.dtype} {out.shape}")
    src, dst = x.reshape(pre, n, post), out.view()
    try:
        dst.shape = (pre, n, post)  # never a copy, unlike reshape
    except AttributeError:
        raise ValueError(f"out of strides {out.strides} has no ({pre}, {n}, {post}) view") from None
    if post == 1 and _grouped(n, sign):
        _pass1_grouped(src[:, :, 0], dst[:, :, 0], sign)
        return out
    # a block is k leading by w trailing indices, k w = cols columns of length n
    cols = _block_columns(n)
    w = min(post, cols) or 1
    k = cols // w
    across = -(-post // w)  # blocks across the trailing indices

    for b in range(-(-pre // k) * across):
        i, j = b // across * k, b % across * w
        part = src[i:i + k, :, j:j + w].transpose(1, 0, 2)
        block = np.ascontiguousarray(part).reshape(n, part.shape[1] * part.shape[2])
        dst[i:i + k, :, j:j + w] = _pass0(block, sign).reshape(part.shape).transpose(1, 0, 2)
    return out


def fft2(field: np.ndarray, s1: int, s2: int, out: np.ndarray | None = None) -> np.ndarray:
    """Signed 2D transform: axis 0 with sign s1, then axis 1 with sign s2,
    each +1 or -1 (both, and the two axes, checked before any output is
    written).

    The result goes to ``out`` as in ``fft1``; axis 1 is transformed in
    place, so with none given the transform holds one new plane, and with
    one given (the input itself, say) only ``fft1``'s block scratch.
    """
    _check_sign(s2)
    if np.ndim(field) < 2:
        raise ValueError(f"fft2 needs two axes, got shape {np.shape(field)}")
    mid = fft1(field, s1, axis=0, out=out)
    return fft1(mid, s2, axis=1, out=mid)
