"""Complex 2D DFT with an independently chosen exponent sign per axis.

The transforms here use the convention
F[k] = sum_m x[m] * exp(i * (s1 * 2 pi m1 k1 / N1 + s2 * 2 pi m2 k2 / N2))
so s1 = s2 = -1 reproduces the usual forward DFT.  Mixed signs are
needed because the split transform kernels rotate the two planes in
opposite directions.

One kernel serves every length by the route that ``_plan`` names, one
of four kinds; it transforms the columns of a contiguous block.  A
length of at most 64 is "dense": one product with its DFT matrix.  A
longer composite length n = a b, with a the largest divisor not above
sqrt(n), runs Bailey's four-step factorization: length-b transforms,
the twiddles w^(m1 k2), a transpose within the block and length-a
transforms, which leaves the output in natural order.  It is "grouped"
where b, so a too, is dense (65, 130, 512, 1000, 1024, 4096, ...), and
"four-step" otherwise.  A longer prime length is a "chirp": Bluestein's
transform, a circular convolution of power-of-two length evaluated by
the same kernel.  The plans are built on first use and cached per
(length, sign); every angle is reduced exactly in integers before ``exp``.

An axis pass of ``fft1`` gathers blocks of about 2^14 samples along the
axis, runs the kernel on each and writes it straight into the output, so
no array is ever transposed whole.  ``fft2`` holds one new plane, the
output that both passes write, or none when it is given an output to
write (the input itself, say), plus the scratch of a few blocks: 0.75
MiB, or up to about 2.25 MiB on a Bluestein axis, whose padded buffer is
two to four times the block.

Along a last axis, the axis along each row, a grouped length takes the
row route ``_pass1_grouped`` in place of the kernel's blocks: each stage
is one product over a whole block of rows, beside two blocks of scratch.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .quat import _BLOCK

TAU = 2.0 * np.pi

# Lengths up to this are a single dense DFT matrix product.
_DENSE_MAX = 64
# Most (length, sign) plans kept at once.  A plan holds at most 5 n
# complex numbers, or 64^2 for a dense one.  The row route keeps at most
# as many twiddle blocks, of at most n _block_columns(n) <= _BLOCK each.
_PLAN_CACHE = 64


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
    """What ``_pass0`` needs for length n, labelled with its kind.

    ("dense", M, None): M[k, m] = w^(m k), w = exp(sign 2 pi i / n).
    ("four-step", a, T): n = a b and T[k2, m1] = w^(m1 k2) for k2 < b, m1 < a.
    ("grouped", a, T): the same, where b (so a too) is at most _DENSE_MAX.
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
        return ("grouped" if n // a <= _DENSE_MAX else "four-step"), a, _roots(m1 * k2 % n, n, sign)
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


def _pass0(x: np.ndarray, sign: int) -> np.ndarray:
    """Signed transform along axis 0 of a C-contiguous (n, r) complex array."""
    n, r = x.shape
    kind, p, q = _plan(n, sign)
    if kind == "dense":
        return p @ x
    if kind != "chirp":  # a four-step, grouped or not
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


def _factors(n: int, sign: int):
    """(a, T, Ma, Mb) of a grouped length n = a b (``_plan``): the
    twiddles T[k2, m1] = w^(m1 k2) and the DFT matrices of a and b."""
    _, a, twiddles = _plan(n, sign)
    return a, twiddles, _plan(a, sign)[1], _plan(n // a, sign)[1]


@lru_cache(maxsize=_PLAN_CACHE)
def _row_twiddles(n: int, sign: int, rows: int) -> np.ndarray:
    """Read-only twiddles T[k2, m1] of ``_factors`` repeated over a block
    of ``_pass1_grouped``'s rows, as (b, rows, a) for a block of any
    height: a contiguous operand of the stage's own shape needs no ufunc
    buffer, where a broadcast or a slice of a taller block is buffered."""
    _, twiddles, _, _ = _factors(n, sign)
    block = np.repeat(twiddles[:, None, :], rows, axis=1)
    block.flags.writeable = False
    return block


def _pass1_grouped(x: np.ndarray, out: np.ndarray, sign: int) -> None:
    """Signed transform along axis 1 of an (r, n) complex array, n = a b
    grouped (``_plan``), into ``out`` of its shape, which may be x's data
    with x's strides in any view: the four-step of ``_pass0`` on rows.

    Each block of ``_block_columns(n)`` rows, input index a m2 + m1, is
    gathered once as (b, rows, a) in runs of a samples, multiplied by Mb
    on the left in one product, by the twiddles T[k2, m1], and by Ma on the
    right in one product, which leaves (k2, row, k1) for output k2 + b k1;
    then it is written back in natural order.  Every block, of any height,
    multiplies by the cached twiddles of its own shape (``_row_twiddles``),
    so the pass holds only its two blocks, sized to the rows present.
    """
    r, n = x.shape
    a, _, ma, mb = _factors(n, sign)
    b = n // a
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
        stage *= _row_twiddles(n, sign, rows)
        np.matmul(stage.reshape(b * rows, a), ma, out=gathered.reshape(b * rows, a))
        np.copyto(dst[i:i + rows], gathered.transpose(1, 2, 0))


def fft1(x: np.ndarray, sign: int, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Signed 1D transform of a complex array along ``axis``.

    The result is written block by block, beside a few blocks of scratch
    (O(n) once n exceeds one), into ``out``: a new C-contiguous array by
    default, or a given complex128 array of the input's shape (any other
    raises ValueError).  One with the input's data pointer and strides,
    whichever object views that memory, is written in place (a block is
    read whole before it is written); one that overlaps the input
    otherwise is written from a copy of it.  The blocks run in the calling
    thread.  Along a last axis (one sample after it) of a grouped length,
    they are blocks of rows (``_pass1_grouped``); otherwise, blocks of the
    kernel's columns.
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
    elif (out.ctypes.data, out.strides) != (x.ctypes.data, x.strides) and np.shares_memory(x, out):
        x = x.copy()  # a block written to out would overwrite input a later block reads
    src, dst = x.reshape(pre, n, post), out.view()
    try:
        dst.shape = (pre, n, post)  # never a copy, unlike reshape
    except AttributeError:
        raise ValueError(f"out of strides {out.strides} has no ({pre}, {n}, {post}) view") from None
    if post == 1 and _plan(n, sign)[0] == "grouped":
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
