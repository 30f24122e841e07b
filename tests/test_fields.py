import numpy as np
import pytest

from opsqft.fields import QuaternionField2D


def test_shape_validation():
    with pytest.raises(ValueError):
        QuaternionField2D(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        QuaternionField2D(np.zeros((3, 4, 3)))
    with pytest.raises(ValueError):
        QuaternionField2D(np.zeros((0, 4, 4)))


def test_dtype_coercion_and_properties():
    field = QuaternionField2D(np.ones((2, 5, 4), dtype=np.float32))
    assert field.data.dtype == np.float64
    assert (field.n1, field.n2) == (2, 5)


def test_float64_data_is_wrapped_without_copy():
    data = np.zeros((3, 2, 4))
    field = QuaternionField2D(data)
    assert field.data is data
    assert QuaternionField2D(field.data).data is data
