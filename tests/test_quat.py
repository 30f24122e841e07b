import math

import numpy as np
import pytest

from opsqft.quat import (
    ONE,
    QI,
    QJ,
    QK,
    ZERO,
    PureUnitQuaternion,
    Quaternion,
    ZeroQuaternion,
    conj,
    conj_arr,
    exp_arr,
    exp_pure,
    inner,
    inverse,
    mul,
    mul_arr,
    norm,
    norm_arr,
    scalar_part,
)

SEED = 20240917


def rand_q(rng):
    return Quaternion(*rng.standard_normal(4))


def test_multiplication_table():
    # squares of the three imaginary units
    for u in (QI, QJ, QK):
        assert mul(u, u) == Quaternion(-1.0, 0.0, 0.0, 0.0)
    assert mul(QI, QJ) == QK
    assert mul(QJ, QK) == QI
    assert mul(QK, QI) == QJ
    assert mul(QJ, QI) == -QK
    assert mul(QK, QJ) == -QI
    assert mul(QI, QK) == -QJ
    q = Quaternion(1.5, -2.0, 0.25, 3.0)
    assert mul(ONE, q) == q
    assert mul(q, ONE) == q


def test_mul_associative_distributive():
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        p, q, r = (rand_q(rng) for _ in range(3))
        assert norm(mul(mul(p, q), r) - mul(p, mul(q, r))) < 1e-12
        assert norm(mul(p, q + r) - (mul(p, q) + mul(p, r))) < 1e-12


def test_conj_reverses_products():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(300):
        p, q = rand_q(rng), rand_q(rng)
        assert norm(conj(mul(p, q)) - mul(conj(q), conj(p))) < 1e-12
    q = rand_q(rng)
    assert conj(conj(q)) == q


def test_norm_multiplicative():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(300):
        p, q = rand_q(rng), rand_q(rng)
        assert norm(mul(p, q)) == pytest.approx(norm(p) * norm(q), rel=1e-12)


def test_scalar_part_cyclic():
    # the same four products accumulate in the same order on both sides
    rng = np.random.default_rng(SEED + 3)
    for _ in range(300):
        p, q = rand_q(rng), rand_q(rng)
        assert scalar_part(mul(p, q)) == scalar_part(mul(q, p))


def test_inner_is_four_dim_dot():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(200):
        p, q = rand_q(rng), rand_q(rng)
        want = p.w * q.w + p.x * q.x + p.y * q.y + p.z * q.z
        assert inner(p, q) == pytest.approx(want, abs=1e-13)
        assert inner(p, q) == pytest.approx(scalar_part(mul(p, conj(q))), abs=1e-13)


def test_inverse():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(200):
        q = rand_q(rng)
        assert norm(mul(q, inverse(q)) - ONE) < 1e-12
        assert norm(mul(inverse(q), q) - ONE) < 1e-12
    with pytest.raises(ZeroQuaternion):
        inverse(ZERO)
    with pytest.raises(ZeroQuaternion):
        inverse(Quaternion(0.0, 0.0, 0.0, 0.0))


def test_exp_pure():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(200):
        f = PureUnitQuaternion(*rng.standard_normal(3))
        a, b = rng.uniform(-10, 10, size=2)
        ea = exp_pure(f, a)
        assert norm(ea) == pytest.approx(1.0, abs=1e-14)
        # same-axis exponents add
        assert norm(mul(ea, exp_pure(f, b)) - exp_pure(f, a + b)) < 1e-12
        # explicit cos/sin form
        want = Quaternion(math.cos(a), math.sin(a) * f.x,
                          math.sin(a) * f.y, math.sin(a) * f.z)
        assert norm(ea - want) < 1e-15
    assert exp_pure(QI, 0.0) == ONE


def test_pure_unit_normalizes():
    u = PureUnitQuaternion(3.0, 0.0, 4.0)
    assert u.w == 0.0
    assert u.x == pytest.approx(0.6, abs=1e-15)
    assert u.z == pytest.approx(0.8, abs=1e-15)
    assert norm(u) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        PureUnitQuaternion(1e-10, 0.0, 0.0)
    with pytest.raises(ValueError):
        PureUnitQuaternion(0.0, 0.0, 0.0)


def test_pure_unit_from_quaternion():
    u = PureUnitQuaternion.from_quaternion(Quaternion(0.0, 0.0, 2.0, 0.0))
    assert (u.x, u.y, u.z) == (0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        PureUnitQuaternion.from_quaternion(Quaternion(0.5, 1.0, 0.0, 0.0))


def test_quaternion_arithmetic_dunders():
    p = Quaternion(1.0, 2.0, 3.0, 4.0)
    q = Quaternion(0.5, -1.0, 0.0, 2.0)
    assert p + q == Quaternion(1.5, 1.0, 3.0, 6.0)
    assert p - q == Quaternion(0.5, 3.0, 3.0, 2.0)
    assert -p == Quaternion(-1.0, -2.0, -3.0, -4.0)
    assert 2.0 * p == Quaternion(2.0, 4.0, 6.0, 8.0)
    assert p * 2.0 == Quaternion(2.0, 4.0, 6.0, 8.0)
    assert p * q == mul(p, q)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        Quaternion(float("nan"), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Quaternion(0.0, float("inf"), 0.0, 0.0)


def test_array_round_trip():
    q = Quaternion(1.0, -2.0, 3.5, 0.25)
    arr = q.to_array()
    assert arr.shape == (4,)
    assert Quaternion.from_array(arr) == q


def test_mul_arr_matches_scalar_mul():
    rng = np.random.default_rng(SEED + 7)
    p = rng.standard_normal((5, 7, 4))
    q = rng.standard_normal((5, 7, 4))
    got = mul_arr(p, q)
    for idx in np.ndindex(5, 7):
        want = mul(Quaternion(*p[idx]), Quaternion(*q[idx]))
        assert np.max(np.abs(got[idx] - want.to_array())) == 0.0


def test_mul_arr_broadcasts():
    rng = np.random.default_rng(SEED + 8)
    p = rng.standard_normal(4)
    q = rng.standard_normal((3, 4, 4))
    got = mul_arr(p, q)
    assert got.shape == (3, 4, 4)
    for idx in np.ndindex(3, 4):
        want = mul(Quaternion(*p), Quaternion(*q[idx]))
        assert np.max(np.abs(got[idx] - want.to_array())) < 1e-15


def test_conj_norm_dot_arr():
    rng = np.random.default_rng(SEED + 9)
    p = rng.standard_normal((6, 4))
    assert np.array_equal(conj_arr(p), p * np.array([1.0, -1, -1, -1]))
    assert norm_arr(p).shape == (6,)
    assert np.allclose(norm_arr(p), np.sqrt((p * p).sum(axis=-1)), atol=1e-15)
    # the squares of 1e300-sized components overflow; the norms do not
    assert np.allclose(norm_arr(1e300 * p), 1e300 * norm_arr(p), rtol=1e-15, atol=0.0)
    assert norm_arr(np.zeros(4)) == 0.0


def test_exp_arr_matches_exp_pure():
    rng = np.random.default_rng(SEED + 10)
    f = PureUnitQuaternion(*rng.standard_normal(3))
    angles = rng.uniform(-7, 7, size=(3, 5))
    got = exp_arr(f, angles)
    assert got.shape == (3, 5, 4)
    for idx in np.ndindex(3, 5):
        want = exp_pure(f, angles[idx]).to_array()
        assert np.max(np.abs(got[idx] - want)) < 1e-15
