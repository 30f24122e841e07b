import math
import re

import numpy as np
import pytest

from opsqft.quat import (
    _BLOCK,
    ONE,
    QI,
    QJ,
    QK,
    ZERO,
    PureUnitQuaternion,
    Quaternion,
    QuaternionField2D,
    ZeroQuaternion,
    conj,
    conj_arr,
    exp_arr,
    exp_pure,
    inner,
    inverse,
    max_norm_arr,
    mul,
    mul_arr,
    norm,
    norm_arr,
    scalar_part,
)
from opsqft.planes import make_context

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


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_norm_and_inverse_at_extreme_scales(scale):
    # the squared norms (1e-400 .. 1e400) leave the double range; the results do not
    q = scale * Quaternion(0.0, 3.0, 0.0, 4.0)
    assert norm(q) == pytest.approx(5.0 * scale, rel=1e-15)
    assert norm(Quaternion(scale, 0.0, 0.0, 0.0)) == scale
    assert inverse(Quaternion(scale, 0.0, 0.0, 0.0)) == Quaternion(1.0 / scale, 0.0, 0.0, 0.0)
    inv = inverse(q)
    assert norm(inv) == pytest.approx(0.2 / scale, rel=1e-15)
    assert norm(mul(q, inv) - ONE) < 1e-15


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
    # x*x + y*y + z*z overflows; the direction is still well defined
    assert PureUnitQuaternion(1e200, 0.0, 0.0) == PureUnitQuaternion(1.0, 0.0, 0.0)
    assert PureUnitQuaternion(3e300, 0.0, 4e300) == u
    # x*x + y*y + z*z overflows, and so does its square root
    assert PureUnitQuaternion(1.5e308, 1.5e308, 1.5e308) == PureUnitQuaternion(1.0, 1.0, 1.0)
    assert PureUnitQuaternion(-1.5e308, 0.0, 1.5e308) == PureUnitQuaternion(-1.0, 0.0, 1.0)
    # a non-finite component is refused, and named as given
    for bad in ((math.inf, 0.0, 0.0), (math.nan, 1.0, 0.0), (math.inf, math.inf, 1.0)):
        with pytest.raises(ValueError, match=re.escape("({}, {}, {})".format(*bad))):
            PureUnitQuaternion(*bad)


def test_pure_unit_from_quaternion():
    # a Quaternion is read as an axis where a context is made
    assert make_context(Quaternion(0.0, 0.0, 2.0, 0.0), QI).f == QJ
    with pytest.raises(ValueError, match=re.escape("f: not a pure quaternion: scalar part 0.5")):
        make_context(Quaternion(0.5, 1.0, 0.0, 0.0), QI)


def test_pure_unit_is_a_quaternion_value():
    assert PureUnitQuaternion(1, 0, 0) == QI
    assert type(PureUnitQuaternion(0.0, 0.0, 2.0)) is Quaternion
    assert PureUnitQuaternion(0.0, 0.0, 2.0) == QK


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e100])
def test_pure_unit_keeps_a_unit_axis(scale):
    # normalizing an axis again gives back its bits
    rng = np.random.default_rng(SEED + 11)
    draws = [(1.0, 1.0, 1.0), (1.0, 1.0, 0.0), *(scale * rng.standard_normal((10_000, 3)))]
    for v in draws:
        u = PureUnitQuaternion(*v)
        assert PureUnitQuaternion(u.x, u.y, u.z).to_array().tobytes() == u.to_array().tobytes()


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


@pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-310, 1.0, 1e150, 1e300])
@pytest.mark.parametrize("shape", [(1, 1), (67, 70), (130, 131), (515, 67)])
def test_max_norm_arr_is_the_largest_norm_arr_bit_for_bit(shape, scale):
    q = scale * np.random.default_rng(SEED + shape[0]).standard_normal(shape + (4,))
    assert max_norm_arr(q) == float(norm_arr(q).max())


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_max_norm_arr_splits_norms_one_ulp_apart(scale):
    # two samples whose norms differ in the last place, the larger one in
    # either order and in either block of 2^14 samples
    rng = np.random.default_rng(SEED + 1)
    for trial in range(40):
        q = rng.standard_normal((131, 130, 4))
        flat = q.reshape(-1, 4)
        v = 4.0 * rng.standard_normal(4)
        w = v.copy()
        w[trial % 4] = np.nextafter(v[trial % 4], 2 * v[trial % 4])
        i, k = rng.choice(len(flat), 2, replace=False)
        flat[i], flat[k] = v, w
        q *= scale
        assert max_norm_arr(q) == float(norm_arr(q).max())


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("at", [_BLOCK - 1, _BLOCK])
def test_max_norm_arr_finds_the_largest_sample_at_a_block_edge(at, scale):
    # the largest sample last in the first block of the pass, or first in the second
    q = np.random.default_rng(SEED + at).standard_normal((131, 130, 4))
    q.reshape(-1, 4)[at] = [3.0, -4.0, 5.0, -6.0]
    q *= scale
    assert max_norm_arr(q) == float(norm_arr(q).max()) == float(norm_arr(q.reshape(-1, 4)[at]))


def test_max_norm_arr_past_the_largest_double_is_inf():
    q = np.zeros((3, 3, 4))
    q[1, 2] = [1.5e308, -1.5e308, 0.0, 0.0]
    q[0, 0] = [1e308, 0.0, 0.0, 0.0]
    assert max_norm_arr(q[:1, :1]) == 1e308
    with np.errstate(over="ignore"):
        assert max_norm_arr(q) == np.inf
        # non-finite data: norm_arr's answer, inf or NaN
        q[2, 2, 3] = np.inf
        assert max_norm_arr(q) == np.inf
        q[2, 2, 3] = np.nan
        assert np.isnan(max_norm_arr(q))


def test_shape_validation():
    with pytest.raises(ValueError):
        QuaternionField2D(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        QuaternionField2D(np.zeros((3, 4, 3)))
    with pytest.raises(ValueError):
        QuaternionField2D(np.zeros((0, 4, 4)))


def test_dtype_coercion_and_properties():
    field = QuaternionField2D(np.ones((2, 5, 4), dtype=np.float32))
    assert field.data.dtype == np.float64
    assert (field.n1, field.n2) == (2, 5)


def test_float64_data_is_wrapped_without_copy():
    data = np.zeros((3, 2, 4))
    field = QuaternionField2D(data)
    assert field.data is data
    assert QuaternionField2D(field.data).data is data
