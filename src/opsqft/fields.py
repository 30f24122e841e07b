"""Sampled 2D quaternion fields.

A field is an n1 x n2 row-major grid of quaternion samples stored as a
numpy array of shape (n1, n2, 4), component order (w, x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class QuaternionField2D:
    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 3 or a.shape[2] != 4:
            raise ValueError(f"expected shape (n1, n2, 4), got {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"grid dimensions must be positive, got {a.shape[:2]}")
        object.__setattr__(self, "data", a)

    @property
    def n1(self) -> int:
        return self.data.shape[0]

    @property
    def n2(self) -> int:
        return self.data.shape[1]
