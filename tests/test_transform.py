import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsqft.fftcore import _block_columns
from opsqft.fields import QuaternionField2D
from opsqft.quat import QI, QJ, PureUnitQuaternion
from opsqft.split import make_context, split_arr
from opsqft.transform import (
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
        make_context(f, PureUnitQuaternion(-f.x, -f.y, -f.z)),
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

    # the package exports a function named split, so the module is looked up
    monkeypatch.setattr(importlib.import_module("opsqft.split"), "_plane_frame",
                        no_second_frame)
    h = rand_field(rng, 4, 6)
    spectrum = Spectrum(rand_field(rng, 4, 6), variant)
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
                spectrum = Spectrum(rand_field(rng, n1, n2), variant)
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
                spectrum = Spectrum(rand_field(rng, n1, n2), variant)
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
        want_inv = inverse_fast(variant, Spectrum(
            QuaternionField2D(data), variant)).data
        for view in layouts(data):
            before = view.copy()
            got = forward_fast(variant, QuaternionField2D(view)).data
            assert np.max(np.abs(got - want_fwd)) <= 1e-14 * rms(want_fwd)
            got = inverse_fast(variant, Spectrum(
                QuaternionField2D(view), variant)).data
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


def test_spectrum_holds_its_field_and_variant():
    rng = np.random.default_rng(SEED + 8)
    variant = TransformVariant(Family.TWO_SIDED, make_context(QI, QJ))
    spectrum = forward_fast(variant, rand_field(rng, 2, 2))
    assert spectrum.variant is variant
    assert spectrum.data is spectrum.field.data
    field = QuaternionField2D(spectrum.data)
    assert Spectrum(field, variant).field is field
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
# in a ragged one; 67, 103 (in 515 = 5 * 103) and 1031 are Bluestein lengths.
RAGGED_GRIDS = ((67, 515), (515, 67), (1031, 40))


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


@pytest.mark.parametrize("n1, n2", RAGGED_GRIDS)
def test_fast_path_in_ragged_blocks(n1, n2):
    # the axis-0 pass runs on column blocks, the axis-1 pass and @ B on
    # row blocks; both end ragged
    cols, rows = _block_columns(n1), _block_columns(n2)
    assert n2 > cols and n2 % cols and n1 > rows and n1 % rows
    rng = np.random.default_rng(SEED + 16)
    data = rng.standard_normal((n1, n2, 4))
    before = data.copy()
    checked = []
    for ctx in context_zoo(rng)[:3]:
        for family in Family:
            variant = TransformVariant(family, ctx)
            for inverse in (False, True):
                if inverse:
                    got = inverse_fast(variant, Spectrum(
                        QuaternionField2D(data), variant)).data
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
