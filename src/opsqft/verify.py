"""Seeded identity suites over random contexts, fields, and frames.

Every suite ``check_*(rng, profile)`` draws as much data as the
``Profile`` says from a ``numpy.random.Generator``, evaluates one
family of identities, and returns ``CheckResult`` rows with the worst
residual seen.  The split-form rows take their coefficients from
``transform.KERNELS`` and its ``Kernel.planes`` rule, so they test the
table the transforms run on rather than a second copy of it.  A result
with ``gated=False`` is informational: the phase-angle family's
discrete round-trip defect (``roundtrip/phased``) is reported this way
because its collapsed spectra cannot determine a general field (each
part spectrum is constant along one axis, so one axis worth of
information per part is averaged away).

Tolerances follow the two-tier policy: 1e-12 for pointwise algebraic
identities, 1e-10 for summed transform identities, 1e-9 relative for
fast-against-direct agreement and energy balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .fields import QuaternionField2D
from .quat import (
    ONE,
    QI,
    QJ,
    QK,
    PureUnitQuaternion,
    Quaternion,
    conj,
    conj_arr,
    exp_pure,
    mul,
    norm,
    scalar_part,
)
from .split import (
    OpsContext,
    PlaneAssignment,
    determine_context,
    make_context,
    coefficients,
    reconstruct,
    rotate_split,
    split,
    split_arr,
)
from .transform import (
    KERNELS,
    Family,
    Spectrum,
    TransformVariant,
    direct_sum,
    forward_direct,
    forward_fast,
    inverse_direct,
    inverse_fast,
    split_spectra,
)
from .fftcore import TAU


class Profile(NamedTuple):
    """How much the suites draw: grid sizes, and contexts and fields per
    size, for the transform suites; samples for the pointwise suites;
    frames for plane determination."""

    sizes: Tuple[Tuple[int, int], ...]
    n_contexts: int
    n_fields: int
    pointwise: int
    frames: int


QUICK = Profile(sizes=((1, 1), (2, 3), (4, 4), (8, 8)), n_contexts=8, n_fields=2,
                pointwise=300, frames=40)
FULL = Profile(sizes=((1, 1), (2, 3), (4, 4), (8, 8), (16, 16)), n_contexts=20,
               n_fields=5, pointwise=1000, frames=100)
PROFILES = {"quick": QUICK, "full": FULL}


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    gated: bool = True

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def line(self) -> str:
        status = ("PASS" if self.passed else "FAIL") if self.gated else "REPORT"
        return f"{status:6s} {self.name:34s} residual {self.residual:.3e}  tol {self.tolerance:.1e}"


# ---------------------------------------------------------------------------
# Random draws.

def random_pure_unit(rng: np.random.Generator) -> PureUnitQuaternion:
    while True:
        v = rng.standard_normal(3)
        if np.linalg.norm(v) >= 1e-6:
            return PureUnitQuaternion(*v)


def random_orthogonal_pure_unit(rng: np.random.Generator,
                                f: Quaternion) -> PureUnitQuaternion:
    fv = np.array([f.x, f.y, f.z])
    while True:
        v = rng.standard_normal(3)
        v = v - np.dot(v, fv) * fv
        if np.linalg.norm(v) >= 1e-6:
            return PureUnitQuaternion(*v)


def random_quaternion(rng: np.random.Generator) -> Quaternion:
    return Quaternion(*rng.standard_normal(4))


def random_field(rng: np.random.Generator, n1: int, n2: int) -> QuaternionField2D:
    return QuaternionField2D(rng.standard_normal((n1, n2, 4)))


def sample_contexts(rng: np.random.Generator, count: int) -> List[OpsContext]:
    """At least ``count`` contexts: one g = f, one g = -f, one orthogonal
    pair, one pair with |g - f| = 1e-9, the rest generic random pairs."""
    f0 = random_pure_unit(rng)
    p = random_orthogonal_pure_unit(rng, f0)
    ctxs = [
        make_context(f0, f0),
        make_context(f0, PureUnitQuaternion(-f0.x, -f0.y, -f0.z)),
        make_context(f0, p),
        make_context(f0, f0 + 1e-9 * p),
    ]
    while len(ctxs) < count:
        ctxs.append(make_context(random_pure_unit(rng), random_pure_unit(rng)))
    return ctxs


def random_frame(rng: np.random.Generator):
    """Orthonormal 4-frame (a, b, c, d) with a, c pure.

    a and c are an orthonormal pure pair; the complement of their span
    is spanned by 1 and the pure unit e orthogonal to both, so b and d
    are a random rotation of (1, e) with random signs.
    """
    a = random_pure_unit(rng)
    c = random_orthogonal_pure_unit(rng, a)
    av = np.array([a.x, a.y, a.z])
    cv = np.array([c.x, c.y, c.z])
    ev = np.cross(av, cv)
    e = Quaternion(0.0, *ev)
    t = rng.uniform(0.0, TAU)
    sb, sd = rng.choice([-1.0, 1.0], size=2)
    b = sb * (math.cos(t) * ONE + math.sin(t) * e)
    d = sd * (-math.sin(t) * ONE + math.cos(t) * e)
    return a, b, c, d


# ---------------------------------------------------------------------------
# Helpers.

def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def _rms(data: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum(data * data, axis=-1))))


def _relative_residual(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(_rms(want), 1e-300)
    return _max_abs(got - want) / scale


# ---------------------------------------------------------------------------
# Suites.

def check_roundtrips(rng, profile=QUICK) -> List[CheckResult]:
    """Fast-path inverse(forward(h)) = h for every family.

    Gated for the invertible families.  The phase-angle row is reported,
    not gated: each of its part spectra is constant along one axis, so
    its inverse cannot restore a general field.
    """
    ctxs = sample_contexts(rng, profile.n_contexts)
    results = []
    for family in Family:
        worst = 0.0
        for ctx in ctxs:
            variant = TransformVariant(family, ctx)
            for n1, n2 in profile.sizes:
                for _ in range(profile.n_fields):
                    h = random_field(rng, n1, n2)
                    back = inverse_fast(variant, forward_fast(variant, h))
                    worst = max(worst, _max_abs(back.data - h.data))
        results.append(CheckResult(f"roundtrip/{family.value}", worst, 1e-10,
                                   gated=family is not Family.PHASE_ANGLE))
    return results


def check_oracle_equivalence(rng, profile=QUICK) -> List[CheckResult]:
    """Fast path against the direct reference, both directions, all families."""
    ctxs = sample_contexts(rng, profile.n_contexts)
    results = []
    for family in Family:
        worst_f = 0.0
        worst_i = 0.0
        for ctx in ctxs:
            variant = TransformVariant(family, ctx)
            for n1, n2 in profile.sizes:
                for _ in range(profile.n_fields):
                    h = random_field(rng, n1, n2)
                    sd = forward_direct(variant, h)
                    sf = forward_fast(variant, h)
                    worst_f = max(worst_f, _relative_residual(sf.data, sd.data))
                    spectrum = Spectrum(random_field(rng, n1, n2), variant)
                    bd = inverse_direct(variant, spectrum)
                    bf = inverse_fast(variant, spectrum)
                    worst_i = max(worst_i, _relative_residual(bf.data, bd.data))
        results.append(CheckResult(f"oracle/{family.value}-forward", worst_f, 1e-9))
        results.append(CheckResult(f"oracle/{family.value}-inverse", worst_i, 1e-9))
    return results


def check_mixed_plane_products(rng, profile=QUICK) -> List[CheckResult]:
    """Sc(p_plus conj(q_minus)) and the mirror vanish for all contexts."""
    worst = 0.0
    for _ in range(profile.pointwise):
        ctx = make_context(random_pure_unit(rng), random_pure_unit(rng))
        p = split(ctx, random_quaternion(rng))
        q = split(ctx, random_quaternion(rng))
        worst = max(worst,
                    abs(scalar_part(mul(p.plus, conj(q.minus)))),
                    abs(scalar_part(mul(p.minus, conj(q.plus)))))
    return [CheckResult("split/mixed-plane-products", worst, 1e-12)]


def check_plane_determination(rng, profile=QUICK) -> List[CheckResult]:
    """Prescribed planes are recovered; the worked unit frame is exact."""
    worst = 0.0
    for _ in range(profile.frames):
        a, b, c, d = random_frame(rng)
        for assign in PlaneAssignment:
            ctx = determine_context(a, b, c, d, assign)
            # index in (plus, minus) of the part that a and b must lack
            stray = 1 if assign is PlaneAssignment.AB_TO_PLUS else 0
            for q, k in ((a, stray), (b, stray), (c, 1 - stray), (d, 1 - stray)):
                worst = max(worst, norm(split(ctx, q)[k]))
    results = [CheckResult("planes/random-frames", worst, 1e-10)]

    ctx = determine_context(QI, QJ, QK, ONE, PlaneAssignment.AB_TO_MINUS)
    exact = (ctx.f.to_array().tolist() == [0.0, 0.0, 0.0, -1.0]
             and ctx.g.to_array().tolist() == [0.0, 0.0, 0.0, 1.0]
             and ctx.degenerate and ctx.degenerate_sign == -1)
    results.append(CheckResult("planes/worked-frame", 0.0 if exact else 1.0, 0.0))
    return results


def check_phase_factor_commutation(rng, profile=QUICK) -> List[CheckResult]:
    """exp(a f) q_pm exp(b g) = q_pm exp((b -+ a) g) = exp((a -+ b) f) q_pm."""
    worst = 0.0
    for k in range(profile.pointwise):
        if k % 5 == 4:
            f = random_pure_unit(rng)
            sign = 1.0 if k % 2 else -1.0
            ctx = make_context(f, PureUnitQuaternion(sign * f.x, sign * f.y, sign * f.z))
        else:
            ctx = make_context(random_pure_unit(rng), random_pure_unit(rng))
        alpha, beta = rng.uniform(-TAU, TAU, size=2)
        parts = split(ctx, random_quaternion(rng))
        for qp, s in ((parts.plus, -1.0), (parts.minus, 1.0)):
            lhs = rotate_split(ctx, qp, alpha, beta)
            mid = mul(qp, exp_pure(ctx.g, beta + s * alpha))
            rhs = mul(exp_pure(ctx.f, alpha + s * beta), qp)
            worst = max(worst, norm(lhs - mid), norm(lhs - rhs))
    return [CheckResult("split/phase-commutation", worst, 1e-12)]


def check_split_forms(rng, profile=QUICK) -> List[CheckResult]:
    """Every kernel row collapses on each split part as ``Kernel.planes`` says.

    For a row with kernel input h', h or conj(h) for an inverse row that
    conjugates its spectrum, and c_pm its ``planes`` pair, each part of
    the (f, g) split of h' satisfies

        sum exp(f cl.t) h'_pm exp(g cr.t) = sum h'_pm exp(g c_pm.t)
                                          = sum exp(-+ f c_pm.t) h'_pm,

    the two part spectra sum to the spectrum of h', and a part spectrum
    is constant along every axis whose coefficient in c_pm is 0.  All
    six rows run at a generic pair, at g = f and at g = -f, on two
    fields each of 4 x 4 and 8 x 8 under every profile.
    """
    f = random_pure_unit(rng)
    ctxs = [make_context(f, random_pure_unit(rng)), make_context(f, f),
            make_context(f, PureUnitQuaternion(-f.x, -f.y, -f.z))]
    results = []
    worst_const = 0.0
    for (family, inverse), k in KERNELS.items():
        worst = 0.0
        for ctx in ctxs:
            for n in (4, 8):
                for _ in range(2):
                    h = random_field(rng, n, n).data
                    h = conj_arr(h) if k.conjugate and inverse else h
                    spectra = []
                    for part, c, s in zip(split_arr(ctx, h), k.planes, (-1, 1)):
                        spectrum = direct_sum(part, ctx.f, ctx.g, k.cl, k.cr)
                        right = direct_sum(part, ctx.f, ctx.g, (0, 0), c)
                        left = direct_sum(part, ctx.f, ctx.g, (s * c[0], s * c[1]), (0, 0))
                        worst = max(worst, _max_abs(right - spectrum),
                                    _max_abs(left - spectrum))
                        for axis in (0, 1):
                            if c[axis] == 0:
                                worst_const = max(worst_const, _max_abs(
                                    spectrum - spectrum.take([0], axis=axis)))
                        spectra.append(spectrum)
                    full = direct_sum(h, ctx.f, ctx.g, k.cl, k.cr)
                    worst = max(worst, _max_abs(spectra[0] + spectra[1] - full))
        direction = "inverse" if inverse else "forward"
        results.append(CheckResult(f"split-forms/{family.value}-{direction}", worst, 1e-10))
    results.append(CheckResult("phase-angle/axis-constancy", worst_const, 1e-10))
    return results


def check_coefficients(rng, profile=QUICK) -> List[CheckResult]:
    """Worked i, j coordinates are exact; reconstruct inverts coefficients."""
    ctx_ij = make_context(QI, QJ)
    exact = True
    for _ in range(profile.pointwise):
        q = random_quaternion(rng)
        q1, q2, q3, q4 = coefficients(ctx_ij, q)
        exact = exact and (q1 == 0.5 * (q.w + q.z) and q2 == 0.5 * (q.x - q.y)
                           and q3 == 0.5 * (q.w - q.z) and q4 == 0.5 * (q.x + q.y))
    results = [CheckResult("coefficients/worked-example",
                           0.0 if exact else 1.0, 0.0)]

    worst = 0.0
    for _ in range(profile.pointwise):
        ctx = make_context(random_pure_unit(rng), random_pure_unit(rng))
        if ctx.degenerate:
            continue
        q = random_quaternion(rng)
        r = reconstruct(ctx, *coefficients(ctx, q))
        worst = max(worst, norm(r - q))
    results.append(CheckResult("coefficients/reconstruct", worst, 1e-12))
    return results


def check_simplex_perplex(rng, profile=QUICK) -> List[CheckResult]:
    """g = f = i reproduces the simplex/perplex split exactly."""
    ctx = make_context(QI, QI)
    exact = True
    for _ in range(profile.pointwise):
        q = random_quaternion(rng)
        parts = split(ctx, q)
        exact = exact and parts.plus == Quaternion(0.0, 0.0, q.y, q.z)
        exact = exact and parts.minus == Quaternion(q.w, q.x, 0.0, 0.0)
    return [CheckResult("split/simplex-perplex", 0.0 if exact else 1.0, 0.0)]


def check_energy(rng, profile=QUICK) -> List[CheckResult]:
    """Spectral energy equals grid energy after 1/(N1 N2), on 16 x 16 grids.

    Two-sided and conjugation families: the frame is orthonormal and
    conjugation keeps the norm.
    """
    ctxs = sample_contexts(rng, profile.n_contexts)
    results = []
    for family in (Family.TWO_SIDED, Family.CONJUGATE):
        worst = 0.0
        for ctx in ctxs:
            variant = TransformVariant(family, ctx)
            for _ in range(3):
                h = random_field(rng, 16, 16)
                spectrum = forward_fast(variant, h)
                e_spatial = float(np.sum(h.data * h.data))
                e_spectral = float(np.sum(spectrum.data * spectrum.data)) / (16 * 16)
                worst = max(worst, abs(e_spatial - e_spectral) / e_spatial)
        results.append(CheckResult(f"energy/{family.value}", worst, 1e-9))
    return results


def check_commutation(rng, profile=QUICK) -> List[CheckResult]:
    """Splitting the spectrum gives the spectra of the split parts.

    The spectrum splits along (f, g), or along (g, f) where the forward
    row conjugates its spectrum, as conjugation carries the (f, g) planes
    onto the (g, f) planes.  Residuals are relative to the RMS of the
    full spectrum, at scales from 1e-150 to 1e150; length 67 runs the
    chirp plan and length 70 the four-step plan.
    """
    ctxs = sample_contexts(rng, profile.n_contexts)
    results = []
    for family in Family:
        worst = 0.0
        for ctx in ctxs:
            variant = TransformVariant(family, ctx)
            pair = make_context(ctx.g, ctx.f) if KERNELS[family, False].conjugate else ctx
            for n1, n2 in ((4, 6), (67, 70)):
                h = random_field(rng, n1, n2).data
                for scale in (1e-150, 1.0, 1e8, 1e150):
                    field = QuaternionField2D(scale * h)
                    full = forward_fast(variant, field).data
                    rms = max(_rms(full), 1e-300)
                    for want, got in zip(split_arr(pair, full), split_spectra(variant, field)):
                        worst = max(worst, _max_abs(got.data - want) / rms)
        results.append(CheckResult(f"commutation/{family.value}", worst, 1e-10))
    return results


# ---------------------------------------------------------------------------
# Aggregate runner.

SUITES = (check_roundtrips, check_oracle_equivalence, check_mixed_plane_products,
          check_plane_determination, check_phase_factor_commutation, check_split_forms,
          check_coefficients, check_simplex_perplex, check_energy, check_commutation)


def run_all(seed: int, profile: str = "quick") -> List[CheckResult]:
    """Every suite in ``SUITES`` order, on one generator seeded with ``seed``."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {', '.join(PROFILES)}")
    rng = np.random.default_rng(seed)
    return [r for suite in SUITES for r in suite(rng, PROFILES[profile])]
