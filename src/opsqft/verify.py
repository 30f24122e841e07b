"""Seeded identity suites over random contexts, fields, and frames.

Every suite ``check_*(rng, profile)`` draws as much data as the
``Profile`` says from a ``numpy.random.Generator``, evaluates one
family of identities, and folds every residual through one ``_Worst``:
each row is the largest residual over its cases, and a residual that is
not a number reads as inf and fails.  The split-form rows take their coefficients from
``transform.KERNELS`` and its ``Kernel.planes`` rule, so they test the
table the transforms run on rather than a second copy of it.  A result
with ``gated=False`` is informational: the phase-angle family's
discrete round-trip defect (``roundtrip/phased``) is reported this way
because its collapsed spectra cannot determine a general field (each
part spectrum is constant along one axis, so one axis worth of
information per part is averaged away); ``roundtrip/phased-lines``
gates what that round trip returns instead.

Tolerances follow the two-tier policy: 1e-12 for pointwise algebraic
identities, 1e-10 for summed transform identities, 1e-9 relative for
fast-against-direct agreement and energy balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

import numpy as np

from .quat import (
    ONE,
    QI,
    QJ,
    QK,
    PureUnitQuaternion,
    Quaternion,
    QuaternionField2D,
    conj,
    conj_arr,
    exp_pure,
    mul,
    norm,
    scalar_part,
    sq_norm_blocks,
)
from .planes import (
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

def random_pure_unit(rng: np.random.Generator) -> Quaternion:
    while True:
        v = rng.standard_normal(3)
        if np.linalg.norm(v) >= 1e-6:
            return PureUnitQuaternion(*v)


def random_orthogonal_pure_unit(rng: np.random.Generator,
                                f: Quaternion) -> Quaternion:
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
        make_context(f0, -f0),
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

class _Worst(dict):
    """The largest residual seen under each row name, in the order the
    names were first seen or seeded (``_Worst.fromkeys(names, 0.0)``).
    A residual that is not a number is read as inf, so it fails every gate."""

    def add(self, name: str, *residuals: float) -> None:
        self[name] = max(self.get(name, 0.0),
                         *(math.inf if math.isnan(r) else float(r) for r in residuals))

    def rows(self, tolerance: float) -> List[CheckResult]:
        return [CheckResult(name, w, tolerance) for name, w in self.items()]


def _max_abs(x) -> float:
    """Largest |component|."""
    return float(np.max(np.abs(x)))


def _rms(data: np.ndarray) -> float:
    """RMS of the sample norms by ``sq_norm_blocks``, with no raw component squared."""
    top = _max_abs(data)
    if top == 0.0 or not math.isfinite(top):
        return top
    total = sum(float(s.sum()) for _, s in sq_norm_blocks(data, top))
    return top * math.sqrt(total / (data.size // 4))


def _relative(err: float, scale: float) -> float:
    """``err / scale``; against a zero scale, 0 for no error and inf for any."""
    return err / scale if scale else (math.inf if err else 0.0)


def _relative_residual(got: np.ndarray, want: np.ndarray) -> float:
    return _relative(_max_abs(got - want), _rms(want))


def _cases(rng, n_contexts, families, sizes, n_fields):
    """(variant, h) for each family, then each of ``sample_contexts``,
    then each (n1, n2) in ``sizes``, then ``n_fields`` random fields h;
    the contexts are drawn first, and each h just before it is yielded."""
    ctxs = sample_contexts(rng, n_contexts)
    for family in families:
        for ctx in ctxs:
            for n1, n2 in sizes:
                for _ in range(n_fields):
                    yield TransformVariant(family, ctx), random_field(rng, n1, n2)


# ---------------------------------------------------------------------------
# Suites.

def check_roundtrips(rng, profile=QUICK) -> List[CheckResult]:
    """Fast-path inverse(forward(h)) = h for every family.

    Gated for the invertible families.  The phase-angle row is reported,
    not gated: each of its part spectra is constant along one axis, so
    its inverse cannot restore a general field.  What that round trip
    does return is gated instead (``roundtrip/phased-lines``, relative
    to the RMS, fast path and, up to 8 x 8, direct path): with h_pm the
    (f, g) split of h,

        inverse(forward(h))[m1, m2] = sum_j h_+[j, m2] + sum_j h_-[m1, j].
    """
    worst = _Worst.fromkeys([f"roundtrip/{f.value}" for f in Family]
                            + ["roundtrip/phased-lines"], 0.0)
    for variant, h in _cases(rng, profile.n_contexts, Family, profile.sizes, profile.n_fields):
        back = inverse_fast(variant, forward_fast(variant, h))
        worst.add(f"roundtrip/{variant.family.value}", _max_abs(back.data - h.data))
        if variant.family is Family.PHASE_ANGLE:
            plus, minus = split_arr(variant.ctx, h.data)
            lines = plus.sum(axis=0, keepdims=True) + minus.sum(axis=1, keepdims=True)
            backs = [back]
            if max(h.n1, h.n2) <= 8:
                backs.append(inverse_direct(variant, forward_direct(variant, h)))
            worst.add("roundtrip/phased-lines", *(_relative_residual(b.data, lines) for b in backs))
    return [CheckResult(r.name, r.residual, r.tolerance, gated=r.name != "roundtrip/phased")
            for r in worst.rows(1e-10)]


def check_oracle_equivalence(rng, profile=QUICK) -> List[CheckResult]:
    """Fast path against the direct reference, both directions, all families."""
    worst = _Worst()
    for variant, h in _cases(rng, profile.n_contexts, Family, profile.sizes, profile.n_fields):
        name = f"oracle/{variant.family.value}"
        worst.add(f"{name}-forward", _relative_residual(forward_fast(variant, h).data,
                                                        forward_direct(variant, h).data))
        spectrum = Spectrum(rng.standard_normal((h.n1, h.n2, 4)), variant)
        worst.add(f"{name}-inverse", _relative_residual(inverse_fast(variant, spectrum).data,
                                                        inverse_direct(variant, spectrum).data))
    return worst.rows(1e-9)


def check_mixed_plane_products(rng, profile=QUICK) -> List[CheckResult]:
    """Sc(p_plus conj(q_minus)) and the mirror vanish for all contexts."""
    worst = _Worst()
    for _ in range(profile.pointwise):
        ctx = make_context(random_pure_unit(rng), random_pure_unit(rng))
        p = split(ctx, random_quaternion(rng))
        q = split(ctx, random_quaternion(rng))
        worst.add("split/mixed-plane-products",
                  abs(scalar_part(mul(p.plus, conj(q.minus)))),
                  abs(scalar_part(mul(p.minus, conj(q.plus)))))
    return worst.rows(1e-12)


def check_plane_determination(rng, profile=QUICK) -> List[CheckResult]:
    """Prescribed planes are recovered; the worked unit frame is exact."""
    worst = _Worst()
    for _ in range(profile.frames):
        a, b, c, d = random_frame(rng)
        for assign in PlaneAssignment:
            ctx = determine_context(a, b, c, d, assign)
            # index in (plus, minus) of the part that a and b must lack
            stray = 1 if assign is PlaneAssignment.AB_TO_PLUS else 0
            for q, k in ((a, stray), (b, stray), (c, 1 - stray), (d, 1 - stray)):
                worst.add("planes/random-frames", norm(split(ctx, q)[k]))

    ctx = determine_context(QI, QJ, QK, ONE, PlaneAssignment.AB_TO_MINUS)
    exact = _Worst()
    exact.add("planes/worked-frame", norm(ctx.f + QK), norm(ctx.g - QK),
              abs(ctx.degenerate_sign + 1))
    return worst.rows(1e-10) + exact.rows(0.0)


def check_phase_factor_commutation(rng, profile=QUICK) -> List[CheckResult]:
    """exp(a f) q_pm exp(b g) = q_pm exp((b -+ a) g) = exp((a -+ b) f) q_pm."""
    worst = _Worst()
    for k in range(profile.pointwise):
        if k % 5 == 4:
            f = random_pure_unit(rng)
            sign = 1.0 if k % 2 else -1.0
            ctx = make_context(f, sign * f)
        else:
            ctx = make_context(random_pure_unit(rng), random_pure_unit(rng))
        alpha, beta = rng.uniform(-TAU, TAU, size=2)
        parts = split(ctx, random_quaternion(rng))
        for qp, s in ((parts.plus, -1.0), (parts.minus, 1.0)):
            lhs = rotate_split(ctx, qp, alpha, beta)
            mid = mul(qp, exp_pure(ctx.g, beta + s * alpha))
            rhs = mul(exp_pure(ctx.f, alpha + s * beta), qp)
            worst.add("split/phase-commutation", norm(lhs - mid), norm(lhs - rhs))
    return worst.rows(1e-12)


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
            make_context(f, -f)]
    names = [f"split-forms/{family.value}-{'inverse' if inverse else 'forward'}"
             for family, inverse in KERNELS]
    worst = _Worst.fromkeys(names + ["phase-angle/axis-constancy"], 0.0)
    for name, ((_, inverse), k) in zip(names, KERNELS.items()):
        for ctx in ctxs:
            for n in (4, 8):
                for _ in range(2):
                    h = random_field(rng, n, n).data
                    h = conj_arr(h) if k.conjugate and inverse else h
                    spectra = []
                    for part, c, s in zip(split_arr(ctx, h), k.planes, (-1, 1)):
                        spectrum = direct_sum(part, ctx, k.cl, k.cr)
                        right = direct_sum(part, ctx, (0, 0), c)
                        left = direct_sum(part, ctx, (s * c[0], s * c[1]), (0, 0))
                        worst.add(name, _max_abs(right - spectrum), _max_abs(left - spectrum))
                        for axis in (0, 1):
                            if c[axis] == 0:
                                worst.add("phase-angle/axis-constancy", _max_abs(
                                    spectrum - spectrum.take([0], axis=axis)))
                        spectra.append(spectrum)
                    full = direct_sum(h, ctx, k.cl, k.cr)
                    worst.add(name, _max_abs(spectra[0] + spectra[1] - full))
    return worst.rows(1e-10)


def check_coefficients(rng, profile=QUICK) -> List[CheckResult]:
    """Worked i, j coordinates are exact; reconstruct inverts coefficients,
    at random pairs and, for the same q, at fixed pairs 1e-3 to 1e-11
    from g = f and from g = -f."""
    ctx_ij = make_context(QI, QJ)
    exact = _Worst()
    for _ in range(profile.pointwise):
        q = random_quaternion(rng)
        want = 0.5 * (q.w + q.z), 0.5 * (q.x - q.y), 0.5 * (q.w - q.z), 0.5 * (q.x + q.y)
        exact.add("coefficients/worked-example",
                  _max_abs(np.subtract(coefficients(ctx_ij, q), want)))

    f = PureUnitQuaternion(1.0, 2.0, 3.0)
    p = PureUnitQuaternion(2.0, -1.0, 0.0)  # orthogonal to f
    near = [make_context(f, s * f + gap * p)
            for s in (1.0, -1.0) for gap in (1e-3, 1e-6, 1e-9, 1e-11)]
    worst = _Worst()
    for _ in range(profile.pointwise):
        ctx = make_context(random_pure_unit(rng), random_pure_unit(rng))
        if ctx.degenerate:
            continue
        q = random_quaternion(rng)
        for c in (ctx, *near):
            worst.add("coefficients/reconstruct", norm(reconstruct(c, *coefficients(c, q)) - q))
    return exact.rows(0.0) + worst.rows(1e-12)


def check_simplex_perplex(rng, profile=QUICK) -> List[CheckResult]:
    """g = f = i reproduces the simplex/perplex split exactly."""
    ctx = make_context(QI, QI)
    exact = _Worst()
    for _ in range(profile.pointwise):
        q = random_quaternion(rng)
        parts = split(ctx, q)
        exact.add("split/simplex-perplex", norm(parts.plus - Quaternion(0.0, 0.0, q.y, q.z)),
                  norm(parts.minus - Quaternion(q.w, q.x, 0.0, 0.0)))
    return exact.rows(0.0)


def check_energy(rng, profile=QUICK) -> List[CheckResult]:
    """Spectral energy equals grid energy after 1/(N1 N2), on 16 x 16 grids.

    Two-sided and conjugation families: the frame is orthonormal and
    conjugation keeps the norm.
    """
    families = (Family.TWO_SIDED, Family.CONJUGATE)
    worst = _Worst()
    for variant, h in _cases(rng, profile.n_contexts, families, ((16, 16),), 3):
        ratio = (_rms(forward_fast(variant, h).data) / _rms(h.data)) ** 2 / (16 * 16)
        worst.add(f"energy/{variant.family.value}", abs(ratio - 1.0))
    return worst.rows(1e-9)


def check_commutation(rng, profile=QUICK) -> List[CheckResult]:
    """Splitting the spectrum gives the spectra of the split parts.

    The spectrum splits along (f, g), or along (g, f) where the forward
    row conjugates its spectrum, as conjugation carries the (f, g) planes
    onto the (g, f) planes.  Residuals are relative to the RMS of the
    full spectrum, at scales from 1e-150 to 1e150.  67 x 70 runs the chirp
    plan on axis 0 and the four-step plan on axis 1; 70 x 67 runs the
    grouped pass on axis 0.
    """
    worst = _Worst()
    for variant, h in _cases(rng, profile.n_contexts, Family, ((4, 6), (67, 70), (70, 67)), 1):
        ctx = variant.ctx
        pair = make_context(ctx.g, ctx.f) if KERNELS[variant.family, False].conjugate else ctx
        for scale in (1e-150, 1.0, 1e8, 1e150):
            field = QuaternionField2D(scale * h.data)
            full = forward_fast(variant, field).data
            rms = _rms(full)
            for want, got in zip(split_arr(pair, full), split_spectra(variant, field)):
                worst.add(f"commutation/{variant.family.value}",
                          _relative(_max_abs(got.data - want), rms))
    return worst.rows(1e-10)


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
