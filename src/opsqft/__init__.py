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
    swapped_context,
)
from .fftcore import AxisSigns, fft1, fft2
from .transform import (
    Family,
    Spectrum,
    TransformVariant,
    VariantMismatch,
    forward_direct,
    forward_fast,
    inverse_direct,
    inverse_fast,
    split_spectra,
)
from .formats import (
    BadMagic,
    BadVersion,
    FileFormatError,
    IoFailure,
    MalformedHeader,
    NonFiniteSample,
    TrailingBytes,
    TruncatedPayload,
    UnsupportedFormat,
    export_magnitude_pgm,
    read_field,
    read_image_ppm,
    write_field,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "ONE", "QI", "QJ", "QK", "ZERO",
    "Quaternion", "PureUnitQuaternion", "ZeroQuaternion",
    "mul", "conj", "norm", "scalar_part", "inner", "inverse", "exp_pure",
    "QuaternionField2D",
    "OpsContext", "PlaneAssignment", "SplitParts",
    "DegenerateContext", "InvalidFrame",
    "make_context", "swapped_context", "determine_context",
    "split", "split_arr", "half_turn", "coefficients", "reconstruct",
    "rotate_split",
    "AxisSigns", "fft1", "fft2",
    "Family", "TransformVariant", "Spectrum", "VariantMismatch",
    "forward_fast", "forward_direct", "inverse_fast", "inverse_direct",
    "split_spectra",
    "FileFormatError", "BadMagic", "BadVersion", "TruncatedPayload", "TrailingBytes",
    "MalformedHeader", "NonFiniteSample", "UnsupportedFormat", "IoFailure",
    "read_field", "write_field", "read_image_ppm", "export_magnitude_pgm",
    "CheckResult", "run_all",
    "__version__",
]
