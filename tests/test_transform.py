import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsqft import fftcore, transform
from opsqft.fftcore import _block_columns
from opsqft.quat import QI, QJ, PureUnitQuaternion, QuaternionField2D
from opsqft.planes import make_context, split_arr
from opsqft.transform import (
    _SPLIT_MIN,
    KERNELS,
    Family,
    Kernel,
    Spectrum,
    TransformVariant,
    VariantMismatch,
    forward_direct,
    forward_fast,
    inverse_direct,
    inverse_fast,
    split_spectra,
)

from oracle import (
    as_samples,
    inverse_reference,
    max_component_diff,
    transform_reference,
    transform_sample,
)

SEED = 551


def axis_triple(u):
    return (u.x, u.y, u.z)


NEAR_STEPS = (1e-4, 1e-7, 1e-9, 1e-11, 1e-13)


def near_axis(f, sign, eps, rng):
    """normalize(sign f + eps u) for a random unit u orthogonal to f."""
    fv = np.array([f.x, f.y, f.z])
    u = rng.standard_normal(3)
    u -= np.dot(u, fv) * fv
    return PureUnitQuaternion(*(sign * fv + eps * u / np.linalg.norm(u)))


def context_zoo(rng):
    """Generic, g = f and g = -f pairs, then pairs with |g -+ f| = eps."""
    f = PureUnitQuaternion(*rng.standard_normal(3))
    return [
        make_context(f, PureUnitQuaternion(*rng.standard_normal(3))),
        make_context(f, f),
        make_context(f, -f),
    ] + [make_context(f, near_axis(f, sign, eps, rng))
         for eps in NEAR_STEPS for sign in (1, -1)]


def rand_field(rng, n1, n2):
    return QuaternionField2D(rng.standard_normal((n1, n2, 4)))


def test_each_inverse_row_is_its_forward_row_negated():
    # one table in the (f, g) frame: the rows differ only in their coefficients
    assert Kernel._fields == ("conjugate", "cl", "cr")
    for family in Family:
        forward, inverse = KERNELS[family, False], KERNELS[family, True]
        assert inverse == forward._replace(cl=tuple(-c for c in forward.cl),
                                           cr=tuple(-c for c in forward.cr))


def test_conjugation_family_runs_in_the_frame_of_its_context(monkeypatch):
    # conjc conjugates its spectrum instead of building the (g, f) frame
    rng = np.random.default_rng(SEED + 17)
    variant = TransformVariant(Family.CONJUGATE, context_zoo(rng)[0])

    def no_second_frame(f, g):
        raise AssertionError("a second frame was built")

    monkeypatch.setattr("opsqft.planes._plane_frame", no_second_frame)
    h = rand_field(rng, 4, 6)
    spectrum = Spectrum(rand_field(rng, 4, 6).data, variant)
    forward_fast(variant, h)
    forward_direct(variant, h)
    inverse_fast(variant, spectrum)
    inverse_direct(variant, spectrum)


def test_forward_direct_matches_scalar_reference():
    rng = np.random.default_rng(SEED)
    for ctx in context_zoo(rng):
        for n1, n2 in ((2, 3), (3, 3), (4, 4)):
            h = rand_field(rng, n1, n2)
            samples = as_samples(h.data)
            for family in Family:
                got = forward_direct(TransformVariant(family, ctx), h)
                want = transform_reference(samples, axis_triple(ctx.f),
                                           axis_triple(ctx.g), family.value)
                assert max_component_diff(as_samples(got.data), want) < 1e-11


def test_inverse_direct_matches_scalar_reference():
    rng = np.random.default_rng(SEED + 1)
    for ctx in context_zoo(rng):
        for n1, n2 in ((2, 3), (4, 4)):
            for family in Family:
                variant = TransformVariant(family, ctx)
                spectrum = Spectrum(rand_field(rng, n1, n2).data, variant)
                got = inverse_direct(variant, spectrum)
                want = inverse_reference(as_samples(spectrum.data), axis_triple(ctx.f),
                                         axis_triple(ctx.g), family.value)
                assert max_component_diff(as_samples(got.data), want) < 1e-12


def test_fast_matches_direct():
    rng = np.random.default_rng(SEED + 2)
    for ctx in context_zoo(rng):
        for n1, n2 in ((1, 1), (1, 5), (5, 1), (2, 3), (4, 4), (4, 6), (5, 5),
                       (7, 12), (8, 8)):
            h = rand_field(rng, n1, n2)
            for family in Family:
                variant = TransformVariant(family, ctx)
                sd = forward_direct(variant, h)
                sf = forward_fast(variant, h)
                scale = max(float(np.sqrt(np.mean(sd.data ** 2))), 1e-30)
                assert np.max(np.abs(sd.data - sf.data)) / scale < 1e-12
                spectrum = Spectrum(rand_field(rng, n1, n2).data, variant)
                bd = inverse_direct(variant, spectrum)
                bf = inverse_fast(variant, spectrum)
                scale = max(float(np.sqrt(np.mean(bd.data ** 2))), 1e-30)
                assert np.max(np.abs(bd.data - bf.data)) / scale < 1e-12


def test_round_trip_invertible_families():
    rng = np.random.default_rng(SEED + 3)
    for ctx in context_zoo(rng):
        for family in (Family.TWO_SIDED, Family.CONJUGATE):
            variant = TransformVariant(family, ctx)
            for n1, n2 in ((1, 1), (2, 3), (8, 8)):
                h = rand_field(rng, n1, n2)
                assert np.max(np.abs(
                    inverse_fast(variant, forward_fast(variant, h)).data
                    - h.data)) < 1e-12
                assert np.max(np.abs(
                    inverse_direct(variant, forward_direct(variant, h)).data
                    - h.data)) < 1e-12


def layouts(data):
    """The same samples read-only, Fortran-ordered and as a transposed view."""
    frozen = data.copy()
    frozen.flags.writeable = False
    return [frozen, np.asfortranarray(data),
            np.ascontiguousarray(data.transpose(1, 0, 2)).transpose(1, 0, 2)]


def test_fast_path_accepts_any_memory_layout():
    rng = np.random.default_rng(SEED + 15)
    ctx = context_zoo(rng)[0]
    data = rng.standard_normal((6, 5, 4))
    for family in Family:
        variant = TransformVariant(family, ctx)
        want_fwd = forward_fast(variant, QuaternionField2D(data)).data
        want_inv = inverse_fast(variant, Spectrum(data, variant)).data
        for view in layouts(data):
            before = view.copy()
            got = forward_fast(variant, QuaternionField2D(view)).data
            assert np.max(np.abs(got - want_fwd)) <= 1e-14 * rms(want_fwd)
            got = inverse_fast(variant, Spectrum(view, variant)).data
            assert np.max(np.abs(got - want_inv)) <= 1e-14 * rms(want_inv)
            assert np.array_equal(view, before)


def test_one_sample_grid():
    # every phase is zero on a 1x1 grid
    rng = np.random.default_rng(SEED + 4)
    ctx = make_context(QI, QJ)
    h = rand_field(rng, 1, 1)
    for family in Family:
        variant = TransformVariant(family, ctx)
        spectrum = forward_fast(variant, h)
        want = h.data * np.array([1.0, -1, -1, -1]) \
            if family is Family.CONJUGATE else h.data
        assert np.max(np.abs(spectrum.data - want)) < 1e-15
        assert np.max(np.abs(inverse_fast(variant, spectrum).data - h.data)) < 1e-15


def test_real_linearity():
    rng = np.random.default_rng(SEED + 5)
    ctx = context_zoo(rng)[0]
    for family in Family:
        variant = TransformVariant(family, ctx)
        h1 = rand_field(rng, 4, 4)
        h2 = rand_field(rng, 4, 4)
        combo = QuaternionField2D(2.5 * h1.data - 0.75 * h2.data)
        got = forward_fast(variant, combo)
        want = 2.5 * forward_fast(variant, h1).data \
            - 0.75 * forward_fast(variant, h2).data
        assert np.max(np.abs(got.data - want)) < 1e-12


def test_delta_field_has_constant_spectrum():
    rng = np.random.default_rng(SEED + 6)
    ctx = context_zoo(rng)[0]
    variant = TransformVariant(Family.TWO_SIDED, ctx)
    data = np.zeros((4, 6, 4))
    q = rng.standard_normal(4)
    data[0, 0] = q
    spectrum = forward_fast(variant, QuaternionField2D(data))
    assert np.max(np.abs(spectrum.data - q)) < 1e-13


def test_constant_field_has_delta_spectrum():
    rng = np.random.default_rng(SEED + 7)
    ctx = context_zoo(rng)[0]
    variant = TransformVariant(Family.TWO_SIDED, ctx)
    q = rng.standard_normal(4)
    data = np.broadcast_to(q, (4, 6, 4)).copy()
    spectrum = forward_fast(variant, QuaternionField2D(data))
    want = np.zeros((4, 6, 4))
    want[0, 0] = 24 * q
    assert np.max(np.abs(spectrum.data - want)) < 1e-12


def test_spectrum_is_a_field_with_its_variant():
    rng = np.random.default_rng(SEED + 8)
    variant = TransformVariant(Family.TWO_SIDED, make_context(QI, QJ))
    spectrum = forward_fast(variant, rand_field(rng, 2, 2))
    assert isinstance(spectrum, QuaternionField2D)
    assert spectrum.variant is variant
    assert not hasattr(spectrum, "field")
    assert Spectrum(spectrum.data, variant).data is spectrum.data
    back = inverse_fast(variant, spectrum)
    assert type(back) is QuaternionField2D


def test_variant_mismatch_rejected():
    rng = np.random.default_rng(SEED + 9)
    ctx = make_context(QI, QJ)
    spectrum = forward_fast(TransformVariant(Family.TWO_SIDED, ctx),
                        rand_field(rng, 2, 2))
    other_family = TransformVariant(Family.CONJUGATE, ctx)
    with pytest.raises(VariantMismatch):
        inverse_fast(other_family, spectrum)
    other_axes = TransformVariant(Family.TWO_SIDED, make_context(QI, QI))
    with pytest.raises(VariantMismatch):
        inverse_direct(other_axes, spectrum)


def test_split_spectra_sum_to_full():
    rng = np.random.default_rng(SEED + 10)
    for ctx in context_zoo(rng):
        h = rand_field(rng, 4, 4)
        for family in Family:
            variant = TransformVariant(family, ctx)
            sp, sm = split_spectra(variant, h)
            full = forward_fast(variant, h)
            assert np.max(np.abs(sp.data + sm.data - full.data)) < 1e-12


def test_part_spectra_stay_plane_aligned():
    rng = np.random.default_rng(SEED + 11)
    ctx = context_zoo(rng)[0]
    h = rand_field(rng, 4, 4)

    sp, sm = split_spectra(TransformVariant(Family.TWO_SIDED, ctx), h)
    assert np.max(np.abs(split_arr(ctx, sp.data)[1])) < 1e-13
    assert np.max(np.abs(split_arr(ctx, sm.data)[0])) < 1e-13

    # conjugation maps each plane onto its reversed-pair counterpart
    rev = make_context(ctx.g, ctx.f)
    sp, sm = split_spectra(TransformVariant(Family.CONJUGATE, ctx), h)
    assert np.max(np.abs(split_arr(rev, sp.data)[1])) < 1e-13
    assert np.max(np.abs(split_arr(rev, sm.data)[0])) < 1e-13


def test_transform_commutes_with_split():
    # the spectrum splits along the forward kernel's pair: (g, f) for conjc;
    # residuals are relative to the spectrum, so the verdict ignores scale
    rng = np.random.default_rng(SEED + 12)
    for ctx in context_zoo(rng):
        h = rand_field(rng, 4, 6)
        for scale in (1.0, 1e8, 1e-150):
            scaled = QuaternionField2D(scale * h.data)
            for family in Family:
                variant = TransformVariant(family, ctx)
                full = forward_fast(variant, scaled).data
                pair = make_context(ctx.g, ctx.f) if family is Family.CONJUGATE else ctx
                rms = np.sqrt(np.mean(np.sum(full * full, axis=-1)))
                for want, got in zip(split_arr(pair, full), split_spectra(variant, scaled)):
                    assert np.max(np.abs(got.data - want)) < 1e-12 * rms


def test_two_sided_energy_preserved():
    rng = np.random.default_rng(SEED + 13)
    ctx = context_zoo(rng)[0]
    variant = TransformVariant(Family.TWO_SIDED, ctx)
    h = rand_field(rng, 8, 8)
    spectrum = forward_fast(variant, h)
    e_grid = float(np.sum(h.data ** 2))
    e_freq = float(np.sum(spectrum.data ** 2)) / 64
    assert e_freq == pytest.approx(e_grid, rel=1e-12)


def test_phase_angle_part_spectra_are_lines():
    rng = np.random.default_rng(SEED + 14)
    for ctx in context_zoo(rng):
        variant = TransformVariant(Family.PHASE_ANGLE, ctx)
        h = rand_field(rng, 4, 6)
        plus, minus = split_arr(ctx, h.data)
        fp = forward_fast(variant, QuaternionField2D(plus)).data
        fm = forward_fast(variant, QuaternionField2D(minus)).data
        assert np.max(np.abs(fp - fp[:1, :, :])) < 1e-12
        assert np.max(np.abs(fm - fm[:, :1, :])) < 1e-12


def rms(a):
    return max(float(np.sqrt(np.mean(a ** 2))), 1e-300)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(k=st.integers(-150, 150), n1=st.integers(1, 9), n2=st.integers(1, 9),
       sign=st.sampled_from((1, -1)), eps=st.sampled_from((0.0,) + NEAR_STEPS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fast_path_is_scale_and_pair_invariant(k, n1, n2, sign, eps, seed):
    # the result depends on neither the magnitude of the field nor how
    # close g is to +-f; every error is relative to the compared field
    rng = np.random.default_rng(seed)
    f = PureUnitQuaternion(*rng.standard_normal(3))
    ctx = make_context(f, near_axis(f, sign, eps, rng))
    h = QuaternionField2D(10.0 ** k * rng.standard_normal((n1, n2, 4)))
    for family in Family:
        variant = TransformVariant(family, ctx)
        sd = forward_direct(variant, h)
        sf = forward_fast(variant, h)
        assert np.max(np.abs(sf.data - sd.data)) / rms(sd.data) < 1e-12
        if family is not Family.PHASE_ANGLE:
            back = inverse_fast(variant, sf)
            assert np.max(np.abs(back.data - h.data)) / rms(h.data) < 1e-12


# Grids whose fast passes split both axes into at least two blocks and end
# in a ragged one; 67, 103 (in 515 = 5 * 103), 131 and 1031 are Bluestein
# lengths.
RAGGED_GRIDS = ((67, 515), (515, 67), (1031, 131))
# Grids large enough for ``_halves`` to split a transform's jobs over two
# threads, each with an odd number of @ B blocks (17, 19 and 19), so the
# two threads' halves are uneven.  Their plans (``_stages``) name the
# passes that the thread hooks below watch.
SPLIT_GRIDS = ((1031, 131), (1200, 131), (1200, 130))


def signed_dft(z, axis, c):
    """sum_m z[m] exp(i c 2 pi m k / n) along ``axis``, for c in (-1, 0, 1)."""
    if c == 0:
        return np.broadcast_to(z.sum(axis=axis, keepdims=True), z.shape)
    return np.fft.fft(z, axis=axis) if c < 0 else z.shape[axis] * np.fft.ifft(z, axis=axis)


def numpy_composition(variant, data, inverse):
    """The split transform with numpy.fft: each plane of the (f, g) frame as
    a complex grid, its 2D DFT with the plane's coefficients, and back; a
    conjugated spectrum is the input of an inverse, the output of a forward."""
    k = KERNELS[variant.family, inverse]
    conj = [1.0, -1, -1, -1] if k.conjugate else 1.0
    h = data * conj if inverse else data
    out = np.zeros(data.shape)
    for p, (c1, c2) in enumerate(k.planes):
        plane = variant.ctx.frame[:, 2 * p:2 * p + 2]
        z = (h @ plane) @ [1.0, 1j]
        z = signed_dft(signed_dft(z, 0, c1), 1, c2)
        out += np.stack([z.real, z.imag], axis=-1) @ plane.T
    return out / data[..., 0].size if inverse else out * conj


def assert_fast_path_matches_numpy(n1, n2, rng):
    """forward_fast and inverse_fast of every family on a random n1 x n2
    field, at generic, g = f and g = -f pairs, against
    ``numpy_composition``, and a few samples against the scalar oracle."""
    data = rng.standard_normal((n1, n2, 4))
    before = data.copy()
    checked = []
    for ctx in context_zoo(rng)[:3]:
        for family in Family:
            variant = TransformVariant(family, ctx)
            for inverse in (False, True):
                if inverse:
                    got = inverse_fast(variant, Spectrum(data, variant)).data
                else:
                    got = forward_fast(variant, QuaternionField2D(data)).data
                assert not np.shares_memory(got, data)
                assert np.array_equal(data, before)
                want = numpy_composition(variant, data, inverse)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                checked.append((ctx, family, inverse, got))
    # a few samples against the literal double sum of the scalar oracle
    samples = as_samples(data)
    for i in rng.choice(len(checked), 3, replace=False):
        ctx, family, inverse, got = checked[i]
        k1, k2 = rng.integers(n1), rng.integers(n2)
        want = transform_sample(samples, axis_triple(ctx.f), axis_triple(ctx.g),
                                family.value, k1, k2, inverse)
        assert np.max(np.abs(got[k1, k2] - want)) <= 1e-12 * rms(got)


@pytest.mark.parametrize("n1, n2", [(1031, 1), (1, 1031)])
def test_direct_path_keeps_its_digits_along_a_long_axis(n1, n2):
    # each phase's m k is reduced mod 2n in integers, so the error of an
    # angle does not grow with the axis length (a float k1 * (2 pi m / n)
    # put it at 4e-13 to 6.5e-13 of the RMS here)
    rng = np.random.default_rng(SEED + 41)
    ctx = context_zoo(rng)[0]
    data = rng.standard_normal((n1, n2, 4))
    for family in Family:
        variant = TransformVariant(family, ctx)
        got = forward_direct(variant, QuaternionField2D(data)).data
        want = numpy_composition(variant, data, False)
        assert np.max(np.abs(got - want)) <= 2e-14 * rms(want), family


def test_direct_sum_takes_only_multiples_of_one_half():
    # a coefficient that differs by the axis length gives the same phases
    h = np.random.default_rng(SEED + 42).standard_normal((3, 2, 4))
    ctx = make_context(QI, QJ)
    assert np.allclose(transform.direct_sum(h, ctx, (1.5, 0), (0, -2)),
                       transform.direct_sum(h, ctx, (-1.5, 0), (0, 0)))
    with pytest.raises(ValueError, match="not a multiple of 1/2"):
        transform.direct_sum(h, ctx, (1 / 3, 0), (0, 0))
    with pytest.raises(ValueError, match="not a multiple of 1/2"):
        transform.direct_sum(h, ctx, (0, 0), (0, math.inf))


@pytest.mark.parametrize("n1, n2", RAGGED_GRIDS)
def test_fast_path_in_ragged_blocks(n1, n2):
    # the axis-0 pass runs on column blocks, the axis-1 pass and @ B on
    # row blocks; both end ragged
    cols, rows = _block_columns(n1), _block_columns(n2)
    assert n2 > cols and n2 % cols and n1 > rows and n1 % rows
    assert_fast_path_matches_numpy(n1, n2, np.random.default_rng(SEED + 16))


# Axis-0 lengths n = a b of a four-step plan whose factors are both dense
# (5 13, 2 61, 16 32, 25 40, 32 32, 64 64): a transform runs that axis in
# place over the plane's row groups (``_pass0_grouped``).  With
# n2 = 600 the length-122 pass, 512 columns a chunk, ends in a partial one.
GROUPED_GRIDS = ((65, 40), (122, 600), (512, 48), (1000, 24), (1024, 16), (4096, 4))
# a dense length, a prime and a four-step length with a factor above 64
BLOCKED_AXIS_0_LENGTHS = (64, 67, 515)


def test_grouped_route_takes_two_dense_factors_only():
    # ``test_plan_names_each_kind_of_route`` names these lengths grouped;
    # here both of their factors are dense
    for n1, _ in GROUPED_GRIDS:
        for sign in (-1, 1):
            _, a, _ = fftcore._plan(n1, sign)
            assert a > 1 and n1 % a == 0 and n1 // a <= fftcore._DENSE_MAX
    # 122 = 2 * 61 takes chunks of 512 columns: the last of 600 has 88
    chunk = 2 * _block_columns(61)
    assert fftcore._plan(122, -1)[:2] == ("grouped", 2) and 600 // chunk == 1 and 600 % chunk


@pytest.mark.parametrize("n1, n2", GROUPED_GRIDS + tuple((n, 30) for n in BLOCKED_AXIS_0_LENGTHS))
def test_fast_path_on_grouped_and_blocked_axis_0(n1, n2):
    assert_fast_path_matches_numpy(n1, n2, np.random.default_rng(SEED + 18))


@pytest.mark.parametrize("n1, n2", [(65, 64), (1000, 64), (1024, 64), (122, 576)])
def test_grouped_pass_agrees_with_fft2_to_rounding(n1, n2):
    # a plane of an interleaved stack, as a transform holds it, with row
    # b m1 + m2 holding row a m2 + m1 of the natural-order plane; 122 x 576
    # ends in a partial chunk of 64 columns.  The grouped pass folds its
    # twiddles into its stage-1 matrices, and the BLAS may round a column
    # by its operand's shape, so the two routes agree to rounding, not
    # bit for bit.
    rng = np.random.default_rng(77119)
    x = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
    for s1, s2 in ((-1, 1), (1, -1)):
        kind, a, _ = fftcore._plan(n1, s1)
        assert kind == "grouped"
        stack = np.empty((n1, 2, n2), dtype=np.complex128)
        plane = stack[:, 1]
        plane[:] = x.reshape(n1 // a, a, n2).transpose(1, 0, 2).reshape(n1, n2)
        transform._pass0_grouped(plane, s1)
        fftcore.fft1(plane, s2, axis=1, out=plane)
        want = fftcore.fft2(x, s1, s2)
        assert np.max(np.abs(plane - want)) / np.sqrt(np.mean(np.abs(want) ** 2)) < 1e-14


def test_transform_runs_axis_0_over_row_groups():
    # at 1024 x 1024 the rotation writes each plane of a full transform in
    # 32 row groups, which one grouped pass runs along axis 0, and fft1
    # runs axis 1; each phase-angle line runs fft1 along its live axis only
    n = 1024
    assert transform._stages(KERNELS[Family.TWO_SIDED, False].planes, n, n) == (
        (((), 32, (("_pass0_grouped", 1), ("fft1", -1, 1))),
         ((), 32, (("_pass0_grouped", -1), ("fft1", -1, 1)))), 16)
    assert transform._stages(KERNELS[Family.PHASE_ANGLE, False].planes, n, n) == (
        (((0,), 0, (("fft1", 1, 1),)), ((1,), 0, (("fft1", -1, 0),))), 16)


# Each length's plan: dense (1, 2, 64), grouped with its factor a (65 = 5 13,
# 130 = 10 13, 1024 = 32 32), a four-step on a chirp (515 = 5 103) and a
# chirp (67, 1031).
ROUTE_LENGTHS = {1: 0, 2: 0, 64: 0, 65: 5, 130: 10, 515: 0, 1024: 32, 67: 0, 1031: 0}


@pytest.mark.parametrize("n1, n2", [g for n in ROUTE_LENGTHS for g in ((n, 7), (7, n))])
def test_plan_names_each_plane_route(n1, n2):
    # a line runs fft1 along its live axis; a full plane with a grouped
    # axis 0 runs in row groups, any other through fft2
    rng = np.random.default_rng(SEED + 20)
    ctx = context_zoo(rng)[0]
    data = rng.standard_normal((n1, n2, 4))
    a = ROUTE_LENGTHS.get(n1, 0)
    for (family, inverse), k in KERNELS.items():
        routes, rows = transform._stages(k.planes, n1, n2)
        assert rows == _block_columns(n2)
        for route, (c1, c2) in zip(routes, k.planes):
            if not c1:
                assert route == ((0,), 0, (("fft1", c2, 1),))
            elif not c2:
                assert route == ((1,), 0, (("fft1", c1, 0),))
            elif a:
                assert route == ((), a, (("_pass0_grouped", c1), ("fft1", c2, 1)))
            else:
                assert route == ((), 0, (("fft2", c1, c2),))
        variant = TransformVariant(family, ctx)
        if inverse:
            got = inverse_fast(variant, Spectrum(data, variant)).data
        else:
            got = forward_fast(variant, QuaternionField2D(data)).data
        want = numpy_composition(variant, data, inverse)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def natural_row_order(stages):
    """``_stages`` with each grouped plane written in natural row order."""
    def broken(planes, n1, n2):
        routes, rows = stages(planes, n1, n2)
        return tuple(route._replace(a=0) for route in routes), rows
    return broken


def swapped_planes(stages):
    """``_stages`` with plane + and plane - given each other's routes."""
    def broken(planes, n1, n2):
        (plus, minus), rows = stages(planes, n1, n2)
        return (minus, plus), rows
    return broken


@pytest.mark.parametrize("n1, n2", [(1200, 130), (70, 67)])
@pytest.mark.parametrize("bug", [natural_row_order, swapped_planes])
def test_a_wrong_plan_fails_the_numpy_check(monkeypatch, bug, n1, n2):
    # the plan assertions stand in for spies on the passes, so a broken
    # route must still show in the outputs
    monkeypatch.setattr(transform, "_stages", bug(transform._stages))
    with pytest.raises(AssertionError):
        assert_fast_path_matches_numpy(n1, n2, np.random.default_rng(SEED + 21))


def split_inputs(grid):
    """A field on one of SPLIT_GRIDS and a generic context, after the grid's checks."""
    n1, n2 = grid
    assert n1 * n2 >= _SPLIT_MIN and -(-n1 // _block_columns(n2)) % 2
    rng = np.random.default_rng(SEED + 17)
    return rng.standard_normal((n1, n2, 4)), context_zoo(rng)[0]


def fast_results(data, ctx):
    """forward_fast and inverse_fast of every family on ``data``."""
    out = []
    for family in Family:
        variant = TransformVariant(family, ctx)
        out.append(forward_fast(variant, QuaternionField2D(data)).data)
        out.append(inverse_fast(variant, Spectrum(data, variant)).data)
    return out


def on_one_thread(fn):
    """fn() with the split floor out of reach, so every job runs in the caller."""
    floor = transform._SPLIT_MIN
    transform._SPLIT_MIN = math.inf
    try:
        return fn()
    finally:
        transform._SPLIT_MIN = floor


def plan_passes(grid):
    """The name of every pass that the six rows' plans run on ``grid``."""
    return {name for k in KERNELS.values() for route in transform._stages(k.planes, *grid)[0]
            for name, *_ in route.passes}


def watch_passes(monkeypatch, before):
    """Call before(name) ahead of every run of each pass that the plans of
    SPLIT_GRIDS name, where the transform looks it up: a hook to learn the
    thread that runs it."""
    for name in set().union(*map(plan_passes, SPLIT_GRIDS)):
        def spy(*args, name=name, run=getattr(transform, name), **kwargs):
            before(name)
            return run(*args, **kwargs)

        monkeypatch.setattr(transform, name, spy)


def test_split_jobs_give_the_one_thread_bits(monkeypatch):
    threads = {}
    watch_passes(monkeypatch, lambda name: threads.setdefault(name, set()).add(threading.get_ident()))
    for grid in SPLIT_GRIDS:
        passes = plan_passes(grid)
        data, ctx = split_inputs(grid)
        threads.clear()
        alive = threading.active_count()
        split = fast_results(data, ctx)
        assert all(len(threads[name]) > 1 for name in passes)
        assert threading.active_count() == alive
        threads.clear()
        one = on_one_thread(lambda: fast_results(data, ctx))
        assert set().union(*threads.values()) == {threading.get_ident()}
        assert passes <= threads.keys()
        for got, want in zip(split, one):
            assert np.array_equal(got, want)


def test_no_helper_where_the_blas_count_is_not_set(monkeypatch, tmp_path):
    # with the library search pointed at an empty directory, no OpenBLAS
    # count is set, so a grid that splits runs every job in the caller, with
    # the bits of the split
    data, ctx = split_inputs((1200, 130))
    want = fast_results(data, ctx)

    class NoThreads:
        def Thread(*args, **kwargs):
            raise AssertionError("a helper thread was started")

    monkeypatch.setattr(transform, "threading", NoThreads)
    monkeypatch.setattr(transform, "_BLAS_LIBS", tmp_path)
    transform._pin_blas.cache_clear()
    try:
        got = fast_results(data, ctx)
        assert transform._pin_blas() is False
    finally:
        transform._pin_blas.cache_clear()  # the next call searches numpy's own directory
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_first_split_sets_bundled_openblas_to_one_thread():
    # in a fresh process: a transform under the floor leaves numpy's
    # bundled OpenBLAS as it is; the first split sets it to one thread, and
    # it stays
    src = os.path.dirname(os.path.dirname(transform.__file__))
    code = """if True:
        import ctypes, pathlib, numpy as np
        from opsqft import (QI, QJ, Family, QuaternionField2D, TransformVariant,
                            forward_fast, make_context)
        variant = TransformVariant(Family.TWO_SIDED, make_context(QI, QJ))
        libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
        found = sorted(libs.glob("libscipy_openblas64_*"))
        get = ctypes.CDLL(str(found[0])).scipy_openblas_get_num_threads64_ if found else None
        if get:
            get.argtypes, get.restype = [], ctypes.c_int
        counts = [get() if get else None]
        for n in (64, 512, 64):
            forward_fast(variant, QuaternionField2D(np.ones((n, n, 4))))
            counts.append(get() if get else None)
        print(*counts)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    counts = out.stdout.split()
    if counts[0] == "None":
        pytest.skip("numpy has no bundled OpenBLAS here")
    start, small, split, after = map(int, counts)
    assert small == start and split == after == 1


class HelperFailure(Exception):
    pass


def test_helper_exception_reaches_the_caller(monkeypatch):
    caller = threading.get_ident()

    def fail_off_the_caller(name):
        if threading.get_ident() != caller:
            raise HelperFailure(f"{name} on the helper's half")

    watch_passes(monkeypatch, fail_off_the_caller)
    planes = KERNELS[Family.TWO_SIDED, False].planes
    for grid in SPLIT_GRIDS:
        data, ctx = split_inputs(grid)
        alive = threading.active_count()
        # plane - starts with its first pass on the helper
        (_, minus), _ = transform._stages(planes, *grid)
        with pytest.raises(HelperFailure, match=f"^{minus.passes[0][0]} on the helper's half"):
            forward_fast(TransformVariant(Family.TWO_SIDED, ctx), QuaternionField2D(data))
        # the helper was joined
        assert threading.active_count() == alive


def test_concurrent_callers_get_the_one_thread_bits():
    # more callers than cores, switching often: each starts its own
    # helpers, which write only its own planes and rows, and all get the
    # one-thread bits
    inputs = [split_inputs(grid) for grid in SPLIT_GRIDS]
    want = on_one_thread(lambda: [fast_results(*args) for args in inputs])
    got = [None] * 3

    def call(i):
        got[i] = [fast_results(*args) for args in inputs]

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for result in got:
        assert result is not None and len(result) == len(want)
        for grid_got, grid_want in zip(result, want):
            assert len(grid_got) == len(grid_want)
            for g, w in zip(grid_got, grid_want):
                assert np.array_equal(g, w)
