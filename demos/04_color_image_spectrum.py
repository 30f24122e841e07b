"""File pipeline: color image -> quaternion field -> spectrum -> images.

Builds a small synthetic PPM on disk, ingests it as a field of pure
quaternions (r, g, b in the three imaginary components), transforms it,
and writes spectrum magnitudes back out as PGM images.  Every step has
a CLI equivalent, printed as it runs.

Run:  python3 demos/04_color_image_spectrum.py [outdir]
"""

import os
import sys

import numpy as np

from opsqft import (
    Family,
    PureUnitQuaternion,
    TransformVariant,
    export_magnitude_pgm,
    forward_fast,
    inverse_fast,
    make_context,
    read_field,
    read_image_ppm,
    write_field,
)

outdir = sys.argv[1] if len(sys.argv) > 1 else "demo_out"
os.makedirs(outdir, exist_ok=True)
path = lambda name: os.path.join(outdir, name)

# a 32x32 test card: horizontal red ramp, vertical green ramp, blue disc
yy, xx = np.mgrid[0:32, 0:32]
rgb = np.zeros((32, 32, 3), dtype=np.uint8)
rgb[:, :, 0] = (xx * 255) // 31
rgb[:, :, 1] = (yy * 255) // 31
rgb[:, :, 2] = np.where((xx - 16) ** 2 + (yy - 16) ** 2 <= 64, 255, 0)
with open(path("card.ppm"), "wb") as fh:
    fh.write(b"P6\n32 32\n255\n" + rgb.tobytes())
print("wrote", path("card.ppm"))

field = read_image_ppm(path("card.ppm"))
write_field(field, path("card.qf2d"))
print("ingested as", path("card.qf2d"),
      " # opsqft import-ppm --in card.ppm --out card.qf2d")

ctx = make_context(PureUnitQuaternion(1.0, 1.0, 1.0),
                   PureUnitQuaternion(1.0, -1.0, 0.0))
variant = TransformVariant(Family.TWO_SIDED, ctx)

spec = forward_fast(variant, field)
write_field(spec, path("card_freq.qf2d"))
print("transformed  ",
      " # opsqft transform --variant twosided --f 1,1,1 --g 1,-1,0 ...")

export_magnitude_pgm(spec, path("card_mag.pgm"))
export_magnitude_pgm(spec, path("card_mag_centered.pgm"), centered=True)
print("wrote", path("card_mag.pgm"), "and its centered version",
      " # opsqft export-pgm [--centered]")

back = inverse_fast(variant, spec)
write_field(back, path("card_back.qf2d"))
residual = np.max(np.abs(back.data - field.data))
print("inverse recovers the ingested field within", residual)

stored = read_field(path("card_back.qf2d"))
print("file round trip is bit exact:",
      np.array_equal(stored.data, back.data))

# the conjugation family gives a different, also invertible, spectrum
variant_c = TransformVariant(Family.CONJUGATE, ctx)
spec_c = forward_fast(variant_c, field)
export_magnitude_pgm(spec_c, path("card_mag_conj.pgm"), centered=True)
back_c = inverse_fast(variant_c, spec_c)
print("conjugation-family roundtrip residual",
      np.max(np.abs(back_c.data - field.data)))
print("\nall outputs are under", outdir + "/")
