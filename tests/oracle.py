"""Reference transforms for the tests, independent of the package.

The scalar form is deliberately plain Python over 4-tuples of floats:
every quaternion product is expanded into its four real components and
the transform sums are literal quadruple loops.  Slow, but independent
of the numpy code under test.  The fast form, ``expansion``, is the same
sums by ``numpy.fft`` of the four real components, with no split.
"""

import math

import numpy as np

# x87's 80-bit long double where numpy has one (eps 1.08e-19), else double:
# the precision of the true-error tests, named in their ids
EXTENDED = bool(np.finfo(np.longdouble).eps < 1e-18)
TRUTH, TRUTH_ID = (np.longdouble, "80-bit") if EXTENDED else (np.float64, "float64")


def qmul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def qconj(q):
    return (q[0], -q[1], -q[2], -q[3])


def qadd(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3])


def qscale(s, q):
    return (s * q[0], s * q[1], s * q[2], s * q[3])


def qexp(axis, angle):
    """cos(angle) + sin(angle)*axis for a pure unit axis given as (x, y, z)."""
    c, s = math.cos(angle), math.sin(angle)
    return (c, s * axis[0], s * axis[1], s * axis[2])


def as_samples(arr):
    """(n1, n2, 4) array-like -> nested lists of plain float 4-tuples."""
    return [[tuple(float(c) for c in arr[m1][m2]) for m2 in range(len(arr[0]))]
            for m1 in range(len(arr))]


def transform_reference(h, f, g, family, inverse=False):
    """Literal double-sum transform of a grid of quaternion samples.

    h       nested lists of 4-tuples, shape n1 x n2
    f, g    pure unit axes as (x, y, z) triples
    family  'twosided' | 'phased' | 'conjc'
    Returns the same nested-list layout.
    """
    return [[transform_sample(h, f, g, family, k1, k2, inverse) for k2 in range(len(h[0]))]
            for k1 in range(len(h))]


def transform_sample(h, f, g, family, k1, k2, inverse=False):
    """Output sample (k1, k2) of ``transform_reference``, as one literal double sum."""
    n1, n2 = len(h), len(h[0])
    tau = 2.0 * math.pi
    sgn = 1.0 if inverse else -1.0
    acc = (0.0, 0.0, 0.0, 0.0)
    for m1 in range(n1):
        for m2 in range(n2):
            # m k reduced mod 2n, exactly in integers: every phase below has
            # period 2 in a and b, and a float m k / n of up to n would put
            # an error of about n ulps into the angle
            a = m1 * k1 % (2 * n1) / n1
            b = m2 * k2 % (2 * n2) / n2
            sample = h[m1][m2]
            if family == 'twosided':
                left = qexp(f, sgn * tau * a)
                right = qexp(g, sgn * tau * b)
            elif family == 'phased':
                left = qexp(f, sgn * math.pi * (a + b))
                right = qexp(g, sgn * math.pi * (a - b))
            elif family == 'conjc':
                sample = qconj(sample)
                if inverse:
                    # kernel units keep their forward signs but swap sides
                    left = qexp(f, -tau * b)
                    right = qexp(g, -tau * a)
                else:
                    left = qexp(g, -tau * a)
                    right = qexp(f, -tau * b)
            else:
                raise ValueError(family)
            acc = qadd(acc, qmul(qmul(left, sample), right))
    if inverse:
        acc = qscale(1.0 / (n1 * n2), acc)
    return acc


def signed_dft(z, axis, c):
    """sum_m z[m] exp(i c 2 pi m k / n) along ``axis``, c in (-1, 0, 1), in z's precision."""
    if c == 0:
        return np.broadcast_to(z.sum(axis=axis, keepdims=True), z.shape)
    return np.fft.fft(z, axis=axis) if c < 0 else np.fft.ifft(z, axis=axis, norm="forward")


# The loops of ``transform_sample`` as exp(f cl.t) h exp(g cr.t), t = 2 pi (m1 k1 / n1,
# m2 k2 / n2), and whether conjc conjugates a forward's output (the conjugate of
# its loops' sum puts f on the left) and an inverse's input.
EXPANSION_ROWS = {
    ("twosided", False): ((-1, 0), (0, -1), False),
    ("twosided", True): ((1, 0), (0, 1), False),
    ("phased", False): ((-0.5, -0.5), (-0.5, 0.5), False),
    ("phased", True): ((0.5, 0.5), (0.5, -0.5), False),
    ("conjc", False): ((0, 1), (1, 0), True),
    ("conjc", True): ((0, -1), (-1, 0), True),
}


def expansion(h, f, g, family, inverse=False, dtype=np.float64):
    """``transform_reference`` of an (n1, n2, 4) array in precision ``dtype``.

    With a = cl.t and b = cr.t, e^{fa} h e^{gb} expands in cos(a +- b) and
    sin(a +- b) (Buelow 1999; Pei, Ding & Chang 2001).  Each cl +- cr is an
    integer pair, so E+- = sum h e^{i (cl +- cr).t} is a signed DFT of each
    real component, and the sum is
    1/2 [Re(E+ + E-) + f Im(E+ + E-) + Im(E+ - E-) g - f Re(E+ - E-) g]."""
    cl, cr, conj = EXPANSION_ROWS[family, inverse]
    x = np.moveaxis(np.asarray(h, dtype=dtype), -1, 0)  # components first
    x = np.stack(qconj(x)) if conj and inverse else x
    e = [x.astype(np.result_type(dtype, 1j))] * 2
    for axis in (0, 1):
        e = [signed_dft(z, axis + 1, round(cl[axis] + s * cr[axis])) for z, s in zip(e, (1, -1))]
    fq, gq = (0, *np.asarray(f, dtype)), (0, *np.asarray(g, dtype))
    total, diff = e[0] + e[1], e[0] - e[1]
    out = qadd(qadd(tuple(total.real), qmul(fq, tuple(total.imag))),
               qadd(qmul(tuple(diff.imag), gq), qscale(-1, qmul(qmul(fq, tuple(diff.real)), gq))))
    out = np.stack(qconj(out) if conj and not inverse else out, axis=-1) / 2
    return out / (out.shape[0] * out.shape[1]) if inverse else out


def inverse_reference(spectrum, f, g, family):
    """Literal inverse; for 'conjc' the conjugate is taken of the spectrum."""
    return transform_reference(spectrum, f, g, family, inverse=True)


def max_component_diff(a, b):
    worst = 0.0
    for ra, rb in zip(a, b):
        for qa, qb in zip(ra, rb):
            for ca, cb in zip(qa, qb):
                worst = max(worst, abs(ca - cb))
    return worst
