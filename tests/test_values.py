"""The value-type contract: every public value type is immutable, compares
and hashes by its fields, builds from keywords with defaults and from its
fields in order, and keeps its repr text."""

import pickle

import numpy as np
import pytest

from casimirgrav import (
    CavityConfig,
    Interval,
    PlateApparatus,
    QuadratureSpec,
    SchemeComparison,
    SchemeKind,
    SeriesResult,
    SpacetimePoint,
    StressTensor,
    WeakField,
)
from casimirgrav.errors import FrozenValue
from casimirgrav.figures import FigureData, FigureSpec

# (build from keywords, field names in order, repr text or None)
VALUES = [
    (lambda: CavityConfig(L=1.0), ("L", "polarizations"),
     "CavityConfig(L=1.0, polarizations=2)"),
    (lambda: StressTensor(components=np.eye(4)), ("components",), None),
    (lambda: SpacetimePoint(z=2.0), ("t", "x", "y", "z"),
     "SpacetimePoint(t=0.0, x=0.0, y=0.0, z=2.0)"),
    (lambda: Interval(lo=0.0), ("lo", "hi"), "Interval(lo=0.0, hi=inf)"),
    (lambda: QuadratureSpec(), ("relative_tolerance",),
     "QuadratureSpec(relative_tolerance=1e-09)"),
    (lambda: SeriesResult(value=1.5, error_bound=0.25, terms_used=3),
     ("value", "error_bound", "terms_used"),
     "SeriesResult(value=1.5, error_bound=0.25, terms_used=3)"),
    (lambda: SchemeComparison(
        energy_per_area={SchemeKind.ZETA_CLOSED_FORM: SeriesResult(-1.0, 0.0, 50)},
        max_relative_discrepancy=0.0),
     ("energy_per_area", "max_relative_discrepancy"),
     "SchemeComparison(energy_per_area={<SchemeKind.ZETA_CLOSED_FORM: 'zeta'>: "
     "SeriesResult(value=-1.0, error_bound=0.0, terms_used=50)}, max_relative_discrepancy=0.0)"),
    (lambda: PlateApparatus(a=1.0, L=0.1, alpha=-1.0), ("a", "L", "xi0", "alpha", "polarizations"),
     "PlateApparatus(a=1.0, L=0.1, xi0=0.0, alpha=-1.0, polarizations=2)"),
    (lambda: WeakField(), ("g",), "WeakField(g=0.0)"),
    (lambda: FigureSpec(fig_id=1), ("fig_id", "L_min", "L_max", "points", "A_min", "A_max",
                                    "A_list", "L_list", "g", "polarizations"),
     "FigureSpec(fig_id=1, L_min=0.5, L_max=5.0, points=200, A_min=0.5, A_max=5.0, "
     "A_list=(1.0, 2.0, 4.0), L_list=(0.5, 1.0, 2.0), g=1.0, polarizations=2)"),
    (lambda: FigureData(columns=["L"], series=[[1.0]]), ("columns", "series", "metadata"),
     "FigureData(columns=['L'], series=[[1.0]], metadata=[])"),
]


@pytest.mark.parametrize("make, fields, text", VALUES,
                         ids=[type(make()).__name__ for make, _, _ in VALUES])
def test_value_type_contract(make, fields, text):
    value, twin = make(), make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(twin, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.undeclared = 1
    assert type(value).__match_args__ == fields
    values = tuple(getattr(value, name) for name in fields)
    rebuilt = type(value)(*values)
    if isinstance(value, StressTensor):  # numpy fields compare elementwise
        np.testing.assert_array_equal(rebuilt.components, value.components)
        return
    assert value == twin == rebuilt == pickle.loads(pickle.dumps(value))
    assert value != values
    try:
        hash(values)
    except TypeError:  # a list or dict field
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    if isinstance(value, FigureData):
        value.rows  # the cached array is no field
    assert repr(value) == text


@pytest.mark.parametrize("make, fields, text", VALUES,
                         ids=[type(make()).__name__ for make, _, _ in VALUES])
def test_base_init_takes_one_value_per_field_in_order(make, fields, text):
    cls = type(make())
    values = tuple(range(len(fields)))
    blank = cls.__new__(cls)
    FrozenValue.__init__(blank, *values)
    assert tuple(getattr(blank, name) for name in fields) == values
    for wrong in (values[:-1], values + (len(values),)):
        with pytest.raises(ValueError):
            FrozenValue.__init__(cls.__new__(cls), *wrong)
