"""Plane splits of quaternions along two pure unit axes, and the
Fourier transform families built on them.

A quaternion-valued 2D field decomposes, for a chosen axis pair
(f, g), into two orthogonal planes on which two-sided phase factors
collapse to one side.  That collapse is what lets every transform
family here run through a pair of complex FFTs.

    >>> import numpy as np
    >>> from opsqft import (QI, QJ, make_context, Family,
    ...                     TransformVariant, QuaternionField2D,
    ...                     forward_fast, inverse_fast)
    >>> ctx = make_context(QI, QJ)
    >>> variant = TransformVariant(Family.TWO_SIDED, ctx)
    >>> h = QuaternionField2D(np.random.default_rng(7).standard_normal((4, 4, 4)))
    >>> back = inverse_fast(variant, forward_fast(variant, h))
    >>> bool(np.max(np.abs(back.data - h.data)) < 1e-12)
    True
"""

import importlib

# Each public name, under the module that defines it.  A name loads with its
# module on first use (PEP 562) and is then cached here, so importing the
# package loads no submodule and no numpy, and a command pays only for the
# modules it runs.
_PUBLIC = {
    "quat": ("ONE", "QI", "QJ", "QK", "ZERO", "Quaternion", "PureUnitQuaternion",
             "ZeroQuaternion", "mul", "conj", "norm", "scalar_part", "inner", "inverse",
             "exp_pure"),
    "fields": ("QuaternionField2D",),
    "planes": ("OpsContext", "PlaneAssignment", "SplitParts", "DegenerateContext",
               "InvalidFrame", "make_context", "determine_context", "split", "split_arr",
               "half_turn", "coefficients", "reconstruct", "rotate_split"),
    "fftcore": ("fft1", "fft2"),
    "transform": ("Family", "TransformVariant", "Spectrum", "VariantMismatch",
                  "forward_fast", "forward_direct", "inverse_fast", "inverse_direct",
                  "split_spectra"),
    "formats": ("FileFormatError", "BadMagic", "BadVersion", "TruncatedPayload",
                "TrailingBytes", "MalformedHeader", "NonFiniteSample", "UnsupportedFormat",
                "IoFailure", "read_field", "write_field", "read_image_ppm",
                "export_magnitude_pgm"),
    "verify": ("CheckResult", "run_all"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}


def __getattr__(name):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_PUBLIC) | set(_HOME))


__version__ = "0.1.0"
__all__ = [*_HOME, "__version__"]
