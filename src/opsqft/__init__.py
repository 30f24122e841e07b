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

from .quat import (
    ONE,
    QI,
    QJ,
    QK,
    ZERO,
    PureUnitQuaternion,
    Quaternion,
    ZeroQuaternion,
    conj,
    exp_pure,
    inner,
    inverse,
    mul,
    norm,
    scalar_part,
)
from .fields import QuaternionField2D
from .split import (
    DegenerateContext,
    InvalidFrame,
    OpsContext,
    PlaneAssignment,
    SplitParts,
    coefficients,
    determine_context,
    half_turn,
    make_context,
    reconstruct,
    rotate_split,
    split,
    split_arr,
)

# The FFT, transform, file-format and verification modules load on first
# use of one of their names (PEP 562), so a command that needs none of
# them does not pay for their import.  ``split`` stays eager: the function
# ``split`` shadows its submodule's name, and a lazy import of the
# submodule would bind ``opsqft.split`` to the module.
_LAZY = {
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
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))


__version__ = "0.1.0"

__all__ = [
    "ONE", "QI", "QJ", "QK", "ZERO",
    "Quaternion", "PureUnitQuaternion", "ZeroQuaternion",
    "mul", "conj", "norm", "scalar_part", "inner", "inverse", "exp_pure",
    "QuaternionField2D",
    "OpsContext", "PlaneAssignment", "SplitParts",
    "DegenerateContext", "InvalidFrame",
    "make_context", "determine_context",
    "split", "split_arr", "half_turn", "coefficients", "reconstruct",
    "rotate_split",
    "fft1", "fft2",
    "Family", "TransformVariant", "Spectrum", "VariantMismatch",
    "forward_fast", "forward_direct", "inverse_fast", "inverse_direct",
    "split_spectra",
    "FileFormatError", "BadMagic", "BadVersion", "TruncatedPayload", "TrailingBytes",
    "MalformedHeader", "NonFiniteSample", "UnsupportedFormat", "IoFailure",
    "read_field", "write_field", "read_image_ppm", "export_magnitude_pgm",
    "CheckResult", "run_all",
    "__version__",
]
