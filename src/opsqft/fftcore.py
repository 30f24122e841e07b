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

An axis pass gathers blocks of about 2^15 samples along the axis, runs
the kernel on each and writes it straight into the output, so no array
is ever transposed whole.  ``fft2`` holds one new plane, the output
that both passes write, or none when it is given an output to write (the
input itself, say), plus the scratch of a few blocks: 1.5 MiB, or up to
about 4.5 MiB on a Bluestein axis, whose padded buffer is two to four
times the block.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

TAU = 2.0 * np.pi

# Lengths up to this are a single dense DFT matrix product.
_DENSE_MAX = 64
# Most (length, sign) plans kept at once.  A plan holds at most 5 n
# complex numbers, or 64^2 for a dense one.
_PLAN_CACHE = 64
# Samples in one block of an axis pass (512 KiB): enough columns for
# BLAS-sized products, few enough that the block and the kernel's scratch
# stay in cache and the pass needs no transposed copy of the array.
_BLOCK = 1 << 15


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
    """Columns of length n per block: a power of two, so BLAS keeps each
    column's bits in any block, near _BLOCK / n."""
    return 1 << max(1, _BLOCK // max(n, 1)).bit_length() - 1


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


def fft1(x: np.ndarray, sign: int, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Signed 1D transform of a complex array along ``axis``.

    The result is written block by block, beside a few blocks of scratch
    (O(n) once n exceeds one), into ``out``: a new C-contiguous array by
    default, or a given complex128 array of the input's shape (any other
    raises ValueError), which may be the input itself (a block is read
    whole before it is written).
    """
    _check_sign(sign)
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[axis]
    axis %= x.ndim
    pre, post = math.prod(x.shape[:axis]), math.prod(x.shape[axis + 1:])
    if out is None:
        out = np.empty(x.shape, dtype=np.complex128)
    elif out.dtype != np.complex128 or out.shape != x.shape:
        raise ValueError(f"out must be complex128 of shape {x.shape}, got {out.dtype} {out.shape}")
    src, dst = x.reshape(pre, n, post), out.view()
    dst.shape = (pre, n, post)  # raises rather than reshape into a copy
    # a block is k leading by w trailing indices, k w = cols columns of length n
    cols = _block_columns(n)
    w = min(post, cols) or 1
    k = cols // w
    for i in range(0, pre, k):
        for j in range(0, post, w):
            part = src[i:i + k, :, j:j + w].transpose(1, 0, 2)
            block = np.ascontiguousarray(part).reshape(n, part.shape[1] * part.shape[2])
            dst[i:i + k, :, j:j + w] = _pass0(block, sign).reshape(part.shape).transpose(1, 0, 2)
    return out


def fft2(field: np.ndarray, s1: int, s2: int, out: np.ndarray | None = None) -> np.ndarray:
    """Signed 2D transform: axis 0 with sign s1, then axis 1 with sign s2,
    each +1 or -1 (both checked before any output is written).

    The result goes to ``out`` as in ``fft1``; axis 1 is transformed in
    place, so with none given the transform holds one new plane, and with
    one given (the input itself, say) only ``fft1``'s block scratch.
    """
    _check_sign(s2)
    mid = fft1(field, s1, axis=0, out=out)
    return fft1(mid, s2, axis=1, out=mid)
