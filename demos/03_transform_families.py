"""The three transform families on a sampled quaternion field.

All three place exponential kernels on both sides of each sample:

  twosided   exp(-f t1) h exp(-g t2)      invertible
  conjc      exp(-g t1) conj(h) exp(-f t2) invertible
  phased     half-sum/half-difference phases; each split part keeps
             only one axis of frequency content, so the pair of part
             spectra is a lossy but structured summary

with t1 = 2 pi m1 k1 / N1 and t2 = 2 pi m2 k2 / N2.  The fast path
rotates each sample into the context's orthonormal 4x4 frame, whose
column pairs span the two planes, reads each pair of coordinates as
one complex number, runs ordinary FFTs on the two grids, and rotates
back.

Run:  python3 demos/03_transform_families.py
"""

import numpy as np

from opsqft import (
    Family,
    PureUnitQuaternion,
    QuaternionField2D,
    TransformVariant,
    forward_direct,
    forward_fast,
    inverse_fast,
    make_context,
    split_arr,
    split_spectra,
)
from opsqft.verify import check_commutation

rng = np.random.default_rng(37)

ctx = make_context(PureUnitQuaternion(*rng.standard_normal(3)),
                   PureUnitQuaternion(*rng.standard_normal(3)))
h = QuaternionField2D(rng.standard_normal((8, 8, 4)))

print("== round trips and the brute-force check ==")
for family in Family:
    variant = TransformVariant(family, ctx)
    spectrum = forward_fast(variant, h)
    direct = forward_direct(variant, h)
    agree = np.max(np.abs(spectrum.data - direct.data))
    line = f"{family.value:9s} fast-vs-direct {agree:.2e}"
    if family is not Family.PHASE_ANGLE:
        back = inverse_fast(variant, spectrum)
        line += f"   roundtrip {np.max(np.abs(back.data - h.data)):.2e}"
    print(line)

print("\n== the transform respects the plane split ==")
# verify's rows: random axis pairs, 4x6 and 67x70 grids, scales 1e-150..1e150
for result in check_commutation(rng):
    print(result.line())

print("\n== each split part sees a one-sided kernel ==")
variant = TransformVariant(Family.TWO_SIDED, ctx)
sp, sm = split_spectra(variant, h)
full = forward_fast(variant, h)
print("part spectra sum to the full spectrum:",
      np.max(np.abs(sp.data + sm.data - full.data)))

print("\n== the phased family collapses each part to a line ==")
variant = TransformVariant(Family.PHASE_ANGLE, ctx)
plus, minus = split_arr(ctx, h.data)
fp = forward_fast(variant, QuaternionField2D(plus)).data
fm = forward_fast(variant, QuaternionField2D(minus)).data
print("plus-part spectrum varies along first axis by ",
      np.max(np.abs(fp - fp[:1])))
print("minus-part spectrum varies along second axis by",
      np.max(np.abs(fm - fm[:, :1])))
print("so a general field cannot be recovered from this family's")
print("spectrum; the verify suite reports that defect without gating it")

print("\n== energy balance for the twosided family ==")
variant = TransformVariant(Family.TWO_SIDED, ctx)
spectrum = forward_fast(variant, h)
e_grid = float(np.sum(h.data ** 2))
e_freq = float(np.sum(spectrum.data ** 2)) / (h.n1 * h.n2)
print(f"grid energy {e_grid:.12f}")
print(f"spectral energy / (N1 N2) {e_freq:.12f}")
