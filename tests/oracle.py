"""Scalar-expansion reference for the quaternion transforms.

Everything here is deliberately plain Python over 4-tuples of floats:
every quaternion product is expanded into its four real components and
the transform sums are literal quadruple loops.  Slow, but independent
of the numpy code under test.
"""

import math


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
