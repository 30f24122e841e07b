import dataclasses
import inspect

import numpy as np
import pytest

import opsqft
from opsqft.quat import (
    ONE,
    QI,
    QJ,
    QK,
    PureUnitQuaternion,
    Quaternion,
    QuaternionField2D,
    conj,
    exp_pure,
    inner,
    mul,
    norm,
    scalar_part,
)
from opsqft.planes import (
    DegenerateContext,
    InvalidFrame,
    OpsContext,
    PlaneAssignment,
    coefficients,
    determine_context,
    half_turn,
    make_context,
    reconstruct,
    rotate_split,
    split,
    split_arr,
)
from opsqft.transform import Family, TransformVariant, forward_fast, inverse_fast

SEED = 4117


def rand_pure(rng):
    return PureUnitQuaternion(*rng.standard_normal(3))


def rand_q(rng):
    return Quaternion(*rng.standard_normal(4))


def rand_ctx(rng):
    return make_context(rand_pure(rng), rand_pure(rng))


def test_split_completeness():
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        ctx = rand_ctx(rng)
        q = rand_q(rng)
        parts = split(ctx, q)
        assert norm(parts.plus + parts.minus - q) < 1e-14


def test_half_turn_is_part_difference_and_involution():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(300):
        ctx = rand_ctx(rng)
        q = rand_q(rng)
        parts = split(ctx, q)
        h = half_turn(ctx, q)
        assert norm(h - (parts.plus - parts.minus)) < 1e-14
        assert norm(half_turn(ctx, h) - q) < 1e-14


def test_parts_are_half_turn_eigenvectors():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(300):
        ctx = rand_ctx(rng)
        parts = split(ctx, rand_q(rng))
        assert norm(half_turn(ctx, parts.plus) - parts.plus) < 1e-14
        assert norm(half_turn(ctx, parts.minus) + parts.minus) < 1e-14


def test_split_is_projection():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(200):
        ctx = rand_ctx(rng)
        parts = split(ctx, rand_q(rng))
        again = split(ctx, parts.plus)
        assert norm(again.plus - parts.plus) < 1e-14
        assert norm(again.minus) < 1e-14
        again = split(ctx, parts.minus)
        assert norm(again.minus - parts.minus) < 1e-14
        assert norm(again.plus) < 1e-14


def test_mixed_plane_scalar_products_vanish():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(500):
        ctx = rand_ctx(rng)
        p = split(ctx, rand_q(rng))
        q = split(ctx, rand_q(rng))
        assert abs(scalar_part(mul(p.plus, conj(q.minus)))) < 1e-12
        assert abs(scalar_part(mul(p.minus, conj(q.plus)))) < 1e-12
        assert abs(inner(p.plus, q.minus)) < 1e-12


def test_basis_vectors_live_in_their_planes():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(100):
        ctx = rand_ctx(rng)
        for b in ctx.basis_plus:
            assert norm(split(ctx, b).minus) < 1e-13
        for b in ctx.basis_minus:
            assert norm(split(ctx, b).plus) < 1e-13


def test_basis_norm_squares():
    # |1 -+ fg|^2 = 2 +- 2<f, g> with the inner product of the pure parts
    rng = np.random.default_rng(SEED + 6)
    for _ in range(200):
        f, g = rand_pure(rng), rand_pure(rng)
        ctx = make_context(f, g)
        dot = f.x * g.x + f.y * g.y + f.z * g.z
        assert norm(ctx.basis_plus[0]) ** 2 == pytest.approx(2 - 2 * dot, abs=1e-12)
        assert norm(ctx.basis_minus[0]) ** 2 == pytest.approx(2 + 2 * dot, abs=1e-12)


def test_split_arr_matches_scalar_path():
    rng = np.random.default_rng(SEED + 7)
    ctx = rand_ctx(rng)
    data = rng.standard_normal((3, 5, 4))
    plus, minus = split_arr(ctx, data)
    for idx in np.ndindex(3, 5):
        parts = split(ctx, Quaternion(*data[idx]))
        assert np.max(np.abs(plus[idx] - parts.plus.to_array())) == 0.0
        assert np.max(np.abs(minus[idx] - parts.minus.to_array())) == 0.0


def test_phase_factor_commutation():
    # exp(a f) q+- exp(b g) moves entirely to either side with the axis swap
    rng = np.random.default_rng(SEED + 8)
    for _ in range(400):
        ctx = rand_ctx(rng)
        alpha, beta = rng.uniform(-6, 6, size=2)
        parts = split(ctx, rand_q(rng))
        for part, s in ((parts.plus, -1.0), (parts.minus, 1.0)):
            lhs = mul(mul(exp_pure(ctx.f, alpha), part), exp_pure(ctx.g, beta))
            right_only = mul(part, exp_pure(ctx.g, beta + s * alpha))
            left_only = mul(exp_pure(ctx.f, alpha + s * beta), part)
            assert norm(lhs - right_only) < 1e-12
            assert norm(lhs - left_only) < 1e-12


def test_rotate_split_is_two_sided_product():
    rng = np.random.default_rng(SEED + 9)
    ctx = rand_ctx(rng)
    q = rand_q(rng)
    a, b = 0.7, -1.2
    want = mul(mul(exp_pure(ctx.f, a), q), exp_pure(ctx.g, b))
    assert norm(rotate_split(ctx, q, a, b) - want) == 0.0


def test_coefficients_worked_example_exact():
    ctx = make_context(QI, QJ)
    rng = np.random.default_rng(SEED + 10)
    for _ in range(200):
        q = rand_q(rng)
        q1, q2, q3, q4 = coefficients(ctx, q)
        assert q1 == 0.5 * (q.w + q.z)
        assert q2 == 0.5 * (q.x - q.y)
        assert q3 == 0.5 * (q.w - q.z)
        assert q4 == 0.5 * (q.x + q.y)


def test_reconstruct_inverts_coefficients():
    rng = np.random.default_rng(SEED + 11)
    done = 0
    while done < 200:
        ctx = rand_ctx(rng)
        if ctx.degenerate:
            continue
        q = rand_q(rng)
        assert norm(reconstruct(ctx, *coefficients(ctx, q)) - q) < 1e-12
        done += 1


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-11])
def test_reconstruct_inverts_coefficients_near_degenerate_pairs(sign, gap):
    # two basis rows come from cancellation here; the round trip still
    # holds to rounding, though each coefficient grows like 1 / gap
    f = PureUnitQuaternion(1.0, 2.0, 3.0)
    ctx = make_context(f, sign * f + gap * PureUnitQuaternion(2.0, -1.0, 0.0))
    assert not ctx.degenerate
    rng = np.random.default_rng(SEED + 14)
    for _ in range(200):
        q = rand_q(rng)
        assert norm(reconstruct(ctx, *coefficients(ctx, q)) - q) < 1e-12


def test_coefficients_reject_degenerate_axes():
    ctx = make_context(QI, QI)
    with pytest.raises(DegenerateContext):
        coefficients(ctx, Quaternion(1.0, 2.0, 3.0, 4.0))
    with pytest.raises(DegenerateContext):
        reconstruct(ctx, 1.0, 0.0, 0.0, 0.0)


def test_equal_axes_split_is_exact():
    # f = g = i separates (w, x) from (y, z) with no rounding at all
    ctx = make_context(QI, QI)
    assert ctx.degenerate and ctx.degenerate_sign == 1
    rng = np.random.default_rng(SEED + 12)
    for _ in range(200):
        q = rand_q(rng)
        parts = split(ctx, q)
        assert parts.plus == Quaternion(0.0, 0.0, q.y, q.z)
        assert parts.minus == Quaternion(q.w, q.x, 0.0, 0.0)


def test_opposite_axes_swap_the_planes():
    ctx = make_context(QI, PureUnitQuaternion(-1.0, 0.0, 0.0))
    assert ctx.degenerate and ctx.degenerate_sign == -1
    rng = np.random.default_rng(SEED + 13)
    for _ in range(200):
        q = rand_q(rng)
        parts = split(ctx, q)
        assert parts.plus == Quaternion(q.w, q.x, 0.0, 0.0)
        assert parts.minus == Quaternion(0.0, 0.0, q.y, q.z)


def test_make_context_accepts_plain_pure_quaternions():
    ctx = make_context(Quaternion(0.0, 2.0, 0.0, 0.0), Quaternion(0.0, 0.0, 0.0, -3.0))
    assert (ctx.f.x, ctx.f.y, ctx.f.z) == (1.0, 0.0, 0.0)
    assert (ctx.g.x, ctx.g.y, ctx.g.z) == (0.0, 0.0, -1.0)


def test_make_context_rejects_non_pure():
    with pytest.raises(ValueError):
        make_context(Quaternion(0.5, 1.0, 0.0, 0.0), QJ)


# ---------------------------------------------------------------------------
# The orthonormal frame (u+, u+ g, u-, u- g) of a context.

def context_zoo(rng):
    """Generic, unit-axis, orthogonal, g = f, g = -f and |g - f| = 1e-9 pairs."""
    f = rand_pure(rng)
    fv = np.array([f.x, f.y, f.z])
    v = rng.standard_normal(3)
    v -= np.dot(v, fv) * fv
    ortho = PureUnitQuaternion(*v)
    near = PureUnitQuaternion(*(fv + 1e-9 * v / np.linalg.norm(v)))
    return [
        make_context(f, rand_pure(rng)),
        make_context(QI, QJ),
        make_context(f, ortho),
        make_context(f, f),
        make_context(f, -f),
        make_context(f, near),
    ]


def test_frame_is_orthonormal_and_in_plane():
    rng = np.random.default_rng(SEED + 17)
    for ctx in context_zoo(rng):
        w = ctx.frame
        assert w.shape == (4, 4)
        assert np.max(np.abs(w.T @ w - np.eye(4))) < 1e-15
        for col, expect_plus in ((0, True), (1, True), (2, False), (3, False)):
            assert wrong_part(ctx, Quaternion(*w[:, col]), expect_plus) < 1e-15


def test_right_g_turns_each_plane_frame():
    # u g is the second column of its plane, so R_g acts as i on x + iy
    rng = np.random.default_rng(SEED + 18)
    for ctx in context_zoo(rng):
        w = ctx.frame
        for col in (0, 2):
            ug = mul(Quaternion(*w[:, col]), ctx.g).to_array()
            assert np.max(np.abs(ug - w[:, col + 1])) < 1e-15


def test_equal_contexts_are_interchangeable():
    rng = np.random.default_rng(SEED + 19)
    for ctx in context_zoo(rng):
        twin = make_context(ctx.f, ctx.g)
        assert twin is not ctx and twin.frame is not ctx.frame
        assert twin == ctx and hash(twin) == hash(ctx)
        h = QuaternionField2D(rng.standard_normal((3, 4, 4)))
        spectrum = forward_fast(TransformVariant(Family.TWO_SIDED, ctx), h)
        back = inverse_fast(TransformVariant(Family.TWO_SIDED, twin), spectrum)
        assert np.max(np.abs(back.data - h.data)) < 1e-13
    # an axis is its value: equal components make one context, whatever carried them
    assert make_context(QI, QJ).f == QI and make_context(QI, QJ).g == QJ
    g = rand_pure(rng)
    for _ in range(500):
        u = rand_pure(rng)
        ctx, twin = make_context(u, g), make_context(Quaternion(0.0, u.x, u.y, u.z), g)
        assert twin == ctx and twin.frame.tobytes() == ctx.frame.tobytes()
    u = PureUnitQuaternion(1.0, 1.0, 1.0)
    h = QuaternionField2D(rng.standard_normal((3, 4, 4)))
    spectrum = forward_fast(TransformVariant(Family.TWO_SIDED, make_context(u, g)), h)
    twin = make_context(Quaternion(0.0, u.x, u.y, u.z), g)
    back = inverse_fast(TransformVariant(Family.TWO_SIDED, twin), spectrum)
    assert np.max(np.abs(back.data - h.data)) < 1e-13
    # a context is its pair: one built with another g carries that g's geometry
    ij = make_context(QI, QJ)
    moved, ik = dataclasses.replace(ij, g=QK), make_context(QI, QK)
    assert moved == ik and hash(moved) == hash(ik)
    assert moved.frame.tobytes() == ik.frame.tobytes()
    assert (moved.basis_plus, moved.basis_minus) == (ik.basis_plus, ik.basis_minus)
    for start, g, sign in ((ij, QI, 1), (ij, -QI, -1), (make_context(QI, QI), QJ, 0)):
        assert dataclasses.replace(start, g=g).degenerate_sign == sign
    assert OpsContext(QI, QJ) == ij
    assert [f.name for f in dataclasses.fields(OpsContext)] == ["f", "g"]
    for bad in (Quaternion(0.5, 0.0, 1.0, 0.0), Quaternion(0.0, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="^g: "):
            OpsContext(QI, bad)
        with pytest.raises(ValueError, match="^g: "):
            dataclasses.replace(ij, g=bad)


# ---------------------------------------------------------------------------
# Plane determination from an orthonormal frame.

def frame_from(rng):
    a = rand_pure(rng)
    fv = np.array([a.x, a.y, a.z])
    while True:
        v = rng.standard_normal(3)
        v -= np.dot(v, fv) * fv
        if np.linalg.norm(v) >= 1e-3:
            break
    c = PureUnitQuaternion(*v)
    e = Quaternion(0.0, *np.cross(fv, [c.x, c.y, c.z]))
    t = rng.uniform(0, 2 * np.pi)
    b = float(np.cos(t)) * ONE + float(np.sin(t)) * e
    d = float(-np.sin(t)) * ONE + float(np.cos(t)) * e
    return a, b, c, d


def wrong_part(ctx, q, expect_plus):
    parts = split(ctx, q)
    return norm(parts.minus if expect_plus else parts.plus)


def test_determine_context_places_frame_in_planes():
    rng = np.random.default_rng(SEED + 15)
    for _ in range(150):
        a, b, c, d = frame_from(rng)
        ctx = determine_context(a, b, c, d, PlaneAssignment.AB_TO_MINUS)
        for q in (a, b):
            assert wrong_part(ctx, q, expect_plus=False) < 1e-10
        for q in (c, d):
            assert wrong_part(ctx, q, expect_plus=True) < 1e-10
        ctx = determine_context(a, b, c, d, PlaneAssignment.AB_TO_PLUS)
        for q in (a, b):
            assert wrong_part(ctx, q, expect_plus=True) < 1e-10
        for q in (c, d):
            assert wrong_part(ctx, q, expect_plus=False) < 1e-10


def test_determine_context_hand_frame():
    ctx = determine_context(QI, QJ, QK, ONE, PlaneAssignment.AB_TO_MINUS)
    assert (ctx.f.x, ctx.f.y, ctx.f.z) == (0.0, 0.0, -1.0)
    assert (ctx.g.x, ctx.g.y, ctx.g.z) == (0.0, 0.0, 1.0)
    assert ctx.degenerate and ctx.degenerate_sign == -1
    # the minus plane of the g = -f split holds scalars and f-multiples
    assert norm(split(ctx, QI).plus) == 0.0
    assert norm(split(ctx, QJ).plus) == 0.0
    assert norm(split(ctx, QK).minus) == 0.0
    assert norm(split(ctx, ONE).minus) == 0.0


def test_determine_context_rejects_bad_frames():
    with pytest.raises(InvalidFrame):
        determine_context(QI, QJ, QK, Quaternion(0.5, 0, 0, 0),
                          PlaneAssignment.AB_TO_MINUS)
    with pytest.raises(InvalidFrame):
        determine_context(QI, QI, QK, ONE, PlaneAssignment.AB_TO_MINUS)
    with pytest.raises(InvalidFrame):
        # a must be pure
        determine_context(Quaternion(1.0, 0, 0, 0), QJ, QK, QI,
                          PlaneAssignment.AB_TO_MINUS)


def test_determine_context_rejects_a_plane_assignment_by_name():
    with pytest.raises(ValueError, match=r"^bad plane assignment: 'minus'$"):
        determine_context(QI, QJ, QK, ONE, "minus")


def test_package_split_is_the_function_and_planes_is_the_module():
    assert inspect.ismodule(opsqft.planes) and opsqft.planes.__name__ == "opsqft.planes"
    assert opsqft.split is split is opsqft.planes.split
    assert opsqft.planes.split_arr is split_arr and opsqft.planes.make_context is make_context
