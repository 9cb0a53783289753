"""Ownership: a record keeps read-only copies of the arrays it is given.

Every public dataclass with an array field is built here from arrays the
test owns. Overwriting those arrays afterwards must leave the record as it
was, and writing to the record's own arrays must raise. ``HamiltonianMatrix``
is the one exception: :func:`build_hamiltonian` hands out a fresh, writable
matrix by contract.
"""

import dataclasses

import numpy as np
import pytest

import nvkit
from nvkit.confocal import ConfocalError, PLMap
from nvkit.constants import NV_AXES
from nvkit.dynamics import DecayCurve, DynamicsError
from nvkit.fitting import FitResult
from nvkit.odmr import LineShapeModel, OdmrError, OdmrSpectrum
from nvkit.photon_stats import G2Curve, PhotonStatsError
from nvkit.spin_model import (
    FieldEnvironment, NvOrientation, SpinOperators, SpinSystem, nv_orientations,
)

UNIT = np.array([1.0, -1.0, -1.0]) / np.sqrt(3.0)


def _column(n, start=0.0):
    return np.linspace(start, start + 1.0, n)


# each record with a function giving the keyword arguments it is built from
RECORDS = [
    (NvOrientation, lambda: dict(axis=np.array([1.0, 2.0, 2.0]))),
    (NvOrientation, lambda: dict(axis=UNIT.copy())),  # a unit axis is not divided
    (FieldEnvironment, lambda: dict(b_lab=np.array([0.1, 0.2, 0.3]))),
    (SpinOperators, lambda: dict(dimension=2, sx=np.eye(2, dtype=complex),
                                 sy=np.eye(2, dtype=complex), sz=np.eye(2, dtype=complex))),
    (OdmrSpectrum, lambda: dict(freqs=_column(8, 2860.0), signal=np.ones(8),
                                sigma=np.full(8, 0.01))),
    (LineShapeModel, lambda: dict(centers=np.array([2865.0, 2875.0]),
                                  contrasts=np.array([0.1, 0.2]), fwhms=np.array([5.0, 6.0]))),
    (DecayCurve, lambda: dict(times=_column(8), signal=np.ones(8), sigma=np.full(8, 0.1))),
    (G2Curve, lambda: dict(taus=_column(4), g2=np.ones(4), sigma=np.full(4, 0.02))),
    (PLMap, lambda: dict(axes=(_column(4), _column(5)), counts=np.ones((4, 5)), power=0.3)),
    (FitResult, lambda: dict(params=np.array([1.0, 2.0]), stderr=np.array([0.1, 0.2]),
                             residual_norm=0.5, converged=True, iterations=3)),
]
INPUTS = dict(RECORDS)  # the last inputs listed for each record


def _arrays(value):
    """Every numpy array in ``value``, looking into tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return []


def _record_arrays(record):
    return [a for f in dataclasses.fields(record) for a in _arrays(getattr(record, f.name))]


def test_every_public_record_with_an_array_field_is_covered():
    with_arrays = {name for name in nvkit.__all__
                   if dataclasses.is_dataclass(cls := getattr(nvkit, name))
                   and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))}
    assert with_arrays - {"HamiltonianMatrix"} == {cls.__name__ for cls, _ in RECORDS}


@pytest.mark.parametrize("cls, make", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_keeps_read_only_copies_of_its_arrays(cls, make):
    inputs = make()
    record = cls(**inputs)
    before = [a.copy() for a in _record_arrays(record)]
    for a in _arrays(tuple(inputs.values())):
        a[...] = np.nan
    after = _record_arrays(record)
    assert all(map(np.array_equal, after, before))
    for a in after:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0


COLUMNS = [(OdmrSpectrum, OdmrError), (LineShapeModel, OdmrError),
           (DecayCurve, DynamicsError), (G2Curve, PhotonStatsError)]


@pytest.mark.parametrize("cls, error", COLUMNS, ids=[cls.__name__ for cls, _ in COLUMNS])
def test_a_column_must_be_one_dimensional(cls, error):
    valid = INPUTS[cls]()
    for name, column in valid.items():
        with pytest.raises(error, match=f"{name} must be 1-D, got shape"):
            cls(**{**valid, name: column.reshape(-1, 1)})
        with pytest.raises(error, match=name):  # a scalar is one value
            cls(**{**valid, name: column[0]})


def test_a_scalar_counts_as_one_value():
    model = LineShapeModel(2870.0, 0.1, 5.0)
    assert model.centers.shape == model.contrasts.shape == model.fwhms.shape == (1,)
    assert G2Curve(0.0, 1.0, 0.02).taus.shape == (1,)


def test_a_map_axis_must_be_one_dimensional():
    valid = INPUTS[PLMap]()
    x, y = valid["axes"]
    with pytest.raises(ConfocalError, match=r"axis x must be 1-D, got shape \(4, 1\)"):
        PLMap(**{**valid, "axes": (x.reshape(4, 1), y)})
    with pytest.raises(ConfocalError, match=r"axis y must be 1-D"):
        PLMap(**{**valid, "axes": (x, np.float64(1.0))})


def test_the_shared_orientations_cannot_be_rewritten():
    assert nv_orientations() is nvkit.spin_model.NV_ORIENTATIONS
    default = SpinSystem().orientation
    assert default is nv_orientations()[0]
    first_axis = NV_AXES[0].copy()
    with pytest.raises(ValueError):
        nv_orientations()[0].axis[0] = 1.0
    assert np.array_equal(NV_AXES[0], first_axis)
    assert np.array_equal(SpinSystem().orientation.axis, first_axis)
    assert nv_orientations()[0].axis is not NV_AXES[0]


def test_a_unit_axis_keeps_its_bits():
    for axis, orientation in zip(NV_AXES, nv_orientations()):
        assert orientation.axis.tobytes() == axis.tobytes()
