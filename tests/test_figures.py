import json
import math
import random
import re

import numpy as np
import pytest

from casimirgrav.cavity import CavityConfig, energy_density, energy_per_area, pressure
from casimirgrav.errors import DomainError, GeometryError
from casimirgrav.figures import (
    _BLOCK_ROWS,
    MAX_POINTS,
    FigureData,
    FigureSpec,
    _linspace,
    figure_series,
    write_csv,
    write_json,
)
from casimirgrav.weakfield import WeakField, delta_force_per_area, fermi_force_per_area


def _loglog_slope(x, y):
    return np.polyfit(np.log(x), np.log(np.abs(y)), 1)[0]


def test_figure_1_2_3_series():
    for fig_id, column, slope in ((1, "energy_density", -4.0), (2, "pressure", -4.0),
                                  (3, "energy_per_area", -3.0)):
        data = figure_series(FigureSpec(fig_id))
        assert data.columns == ["L", column]
        assert data.rows.shape == (200, 2)
        L = data.rows[:, 0]
        assert np.all(np.diff(L) > 0)
        assert np.all(data.rows[:, 1] < 0)
        assert np.all(np.diff(data.rows[:, 1]) > 0)  # rises toward zero
        assert _loglog_slope(L, data.rows[:, 1]) == pytest.approx(slope, abs=1e-6)


def test_figure_4_columns():
    data = figure_series(FigureSpec(4))
    assert data.columns == ["L", "delta_force[A=1]", "delta_force[A=2]", "delta_force[A=4]"]
    L = data.rows[:, 0]
    for j, area in enumerate((1.0, 2.0, 4.0), start=1):
        assert _loglog_slope(L, data.rows[:, j]) == pytest.approx(-3.0, abs=1e-6)
        expected = [area * delta_force_per_area(WeakField(1.0), CavityConfig(l, 2)) for l in L]
        np.testing.assert_array_equal(data.rows[:, j], expected)


def test_figure_5_exact_linearity():
    data = figure_series(FigureSpec(5))
    assert data.columns[0] == "A"
    A = data.rows[:, 0]
    for j, L in enumerate((0.5, 1.0, 2.0), start=1):
        slope = delta_force_per_area(WeakField(1.0), CavityConfig(L, 2))
        np.testing.assert_array_equal(data.rows[:, j], A * slope)
        fit = np.polyfit(A, data.rows[:, j], 1)
        assert fit[0] == pytest.approx(slope, rel=1e-12)
        assert abs(fit[1]) <= 1e-15 * abs(slope)


# the default, one polarization, g = 0, and sweeps that end at each end of [L_MIN, L_MAX]
EXACT_SPECS = [{}, {"polarizations": 1}, {"g": 0.0},
               {"L_min": 1e-75, "L_max": 1e-74, "L_list": (1e-75, 3e-75, 1e-74)},
               {"L_min": 1e74, "L_max": 1e75, "L_list": (1e74, 3e74, 1e75)}]


@pytest.mark.parametrize("fig_id", range(1, 7))
@pytest.mark.parametrize("kwargs", EXACT_SPECS, ids=repr)
def test_figure_columns_are_the_public_closed_forms_bit_for_bit(fig_id, kwargs):
    spec = FigureSpec(fig_id, points=50, **kwargs)
    data = figure_series(spec)
    x, pol, field = data.series[0], spec.polarizations, WeakField(spec.g)
    if fig_id == 1:
        expected = [[energy_density(l) for l in x]]
    elif fig_id in (2, 3):
        closed_form = pressure if fig_id == 2 else energy_per_area
        expected = [[closed_form(CavityConfig(l, pol)) for l in x]]
    elif fig_id == 4:
        delta = [delta_force_per_area(field, CavityConfig(l, pol)) for l in x]
        expected = [[area * d for d in delta] for area in spec.A_list]
    elif fig_id == 5:
        expected = [[area * delta_force_per_area(field, CavityConfig(L, pol)) for area in x]
                    for L in spec.L_list]
    else:
        configs = [CavityConfig(l, pol) for l in x]
        expected = [[delta_force_per_area(field, c) for c in configs],
                    [fermi_force_per_area(field, c) for c in configs]]
    assert [list(map(float.hex, col)) for col in data.series[1:]] == [
        list(map(float.hex, col)) for col in expected]


def test_figure_6_sign_relation():
    data = figure_series(FigureSpec(6))
    assert data.columns == ["L", "delta_force_per_area", "fermi_force_per_area"]
    np.testing.assert_array_equal(data.rows[:, 1], -data.rows[:, 2])


def test_figure_spec_validation():
    with pytest.raises(DomainError):
        FigureSpec(0)
    with pytest.raises(DomainError):
        FigureSpec(7)
    with pytest.raises(DomainError):
        FigureSpec(1, L_min=2.0, L_max=1.0)
    with pytest.raises(DomainError):
        FigureSpec(1, points=1)
    for points in (2.5, 3.0):
        with pytest.raises(DomainError, match="integer"):
            FigureSpec(2, points=points)
    assert len(figure_series(FigureSpec(2, points=np.int64(3))).series[0]) == 3
    with pytest.raises(DomainError):
        FigureSpec(5, A_list=(1.0, -2.0))
    with pytest.raises(DomainError, match="figure id must be an integer"):
        FigureSpec(2.0, points=3)
    for lists in ({"A_list": ()}, {"A_list": []}, {"L_list": ()}):
        with pytest.raises(DomainError, match="at least one value"):
            FigureSpec(5, **lists)
    for g in (-1.0, math.nan, math.inf):
        with pytest.raises(GeometryError, match="field order parameter must be finite and >= 0"):
            FigureSpec(2, g=g)


# equal values would name two columns alike; 1 and 1.0 are one value
@pytest.mark.parametrize("fig_id, kwargs, message", [
    (4, {"A_list": (1.0, 1.0)}, "A_list must not repeat a value, got (1.0, 1.0)"),
    (4, {"A_list": (2.0, 1, 1.0)}, "A_list must not repeat a value, got (2.0, 1, 1.0)"),
    (5, {"L_list": (0.5, 0.5)}, "L_list must not repeat a value, got (0.5, 0.5)"),
    (5, {"L_list": (1, 2.0, 1.0)}, "L_list must not repeat a value, got (1, 2.0, 1.0)"),
], ids=["4-twice-1.0", "4-int-and-float", "5-twice-0.5", "5-int-and-float"])
def test_figure_spec_refuses_a_repeated_list_value(fig_id, kwargs, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        FigureSpec(fig_id, **kwargs)
    # every other fault is named first
    with pytest.raises(DomainError, match="sweeps need"):
        FigureSpec(fig_id, points=1, **kwargs)
    with pytest.raises(DomainError, match="areas must be positive"):
        FigureSpec(fig_id, A_min=-1.0, **kwargs)
    with pytest.raises(GeometryError, match="field order parameter"):
        FigureSpec(fig_id, g=-1.0, **kwargs)


# the default three-entry lists at MAX_POINTS points fill exactly 4 * MAX_POINTS cells
@pytest.mark.parametrize("fig_id, name, other", [(4, "A_list", "L_list"), (5, "L_list", "A_list")])
def test_figure_spec_refuses_a_table_past_the_cell_limit(fig_id, name, other):
    four = {name: (0.5, 1.0, 2.0, 4.0)}
    with pytest.raises(DomainError, match=re.escape(
            f"figure {fig_id} would have 5000000 cells, over the limit of 4000000")):
        FigureSpec(fig_id, points=MAX_POINTS, **four)
    FigureSpec(fig_id, points=MAX_POINTS)
    FigureSpec(fig_id, points=MAX_POINTS // 5, **four)
    # only the list that gives the figure its columns counts
    ten = tuple(0.5 * k for k in range(1, 11))
    FigureSpec(fig_id, points=MAX_POINTS, **{other: ten})
    for unlisted in (1, 2, 3, 6):
        FigureSpec(unlisted, points=MAX_POINTS, A_list=ten, L_list=ten)
    # every other fault is named first
    with pytest.raises(DomainError, match="sweeps need"):
        FigureSpec(fig_id, points=MAX_POINTS + 1, **four)
    with pytest.raises(DomainError, match="must not repeat"):
        FigureSpec(fig_id, points=MAX_POINTS, **{name: (0.5, 1.0, 2.0, 4.0, 4.0)})
    with pytest.raises(GeometryError, match="field order parameter"):
        FigureSpec(fig_id, points=MAX_POINTS, g=-1.0, **four)


@pytest.mark.parametrize("fig_id", range(1, 7))
def test_figure_spec_checks_polarizations(fig_id):
    for pol in (0, 3, 7):
        with pytest.raises(GeometryError, match="polarizations"):
            FigureSpec(fig_id, polarizations=pol)
    for bad_L in ({}, {"L_min": 1e-80}, {"L_list": (1e80,)}):
        with pytest.raises(DomainError, match="polarizations must be an integer, got 2.0"):
            FigureSpec(fig_id, polarizations=2.0, **bad_L)
    for pol in (1, True, np.int64(1)):
        assert figure_series(FigureSpec(fig_id, polarizations=pol)).metadata[2].endswith(
            " polarizations=1")


def test_figure_spec_stores_integers_and_tuples():
    spec = FigureSpec(np.int64(4), points=np.int64(3), A_list=[1.0, 2.0], L_list=iter([0.5]),
                      polarizations=np.int64(2))
    assert [type(v) for v in (spec.fig_id, spec.points, spec.polarizations)] == [int] * 3
    assert (spec.A_list, spec.L_list) == ((1.0, 2.0), (0.5,))
    assert hash(spec) == hash(FigureSpec(4, points=3, A_list=(1.0, 2.0), L_list=(0.5,)))
    assert figure_series(spec).columns == ["L", "delta_force[A=1]", "delta_force[A=2]"]


# inputs that 6 significant digits (the :g format) would round
@pytest.mark.parametrize("fig_id, kwargs", [
    (4, {"A_list": (1.0, 1.0000001), "L_max": 2.0000001, "g": 0.1 + 0.2}),
    (5, {"L_list": (0.5, 0.5000001), "A_min": 1.0 / 3.0, "A_max": 5.0}),
    (1, {"L_min": 1e-75, "L_max": 2.0000001}),
    (6, {"L_min": 0.1, "g": 1e-300}),
])
def test_inputs_printed_in_names_and_metadata_round_trip(fig_id, kwargs):
    spec = FigureSpec(fig_id, points=2, **kwargs)
    data = figure_series(spec)
    assert len(set(data.columns)) == len(data.columns)
    labels = tuple(float(c.split("=")[1][:-1]) for c in data.columns[1:] if "=" in c)
    assert labels == {4: spec.A_list, 5: spec.L_list}.get(fig_id, ())
    for key, text in re.findall(r"(\w+)=(\S+)", data.metadata[2] + " " + data.metadata[3]):
        if key.endswith("_list"):
            assert tuple(map(float, text.split(","))) == getattr(spec, key)
        elif key not in ("polarizations", "points"):
            assert float(text) == getattr(spec, key), key


def test_csv_round_trip(tmp_path):
    path = tmp_path / "fig2.csv"
    write_csv(figure_series(FigureSpec(2, points=40)), str(path))
    lines = path.read_text().splitlines()
    metadata = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert metadata and body[0] == "L,pressure"
    assert len(body) == 41
    for line in body[1:]:
        l_text, p_text = line.split(",")
        # at least 15 significant digits per cell
        assert len(l_text.split("e")[0].replace(".", "").replace("-", "")) >= 15
        recomputed = pressure(CavityConfig(float(l_text), 2))
        assert float(p_text) == pytest.approx(recomputed, rel=1e-12)


def test_json_mirrors_columns(tmp_path):
    path = tmp_path / "fig6.json"
    data = figure_series(FigureSpec(6, points=10))
    write_json(data, str(path))
    rows = json.loads(path.read_text())
    assert isinstance(rows, list) and len(rows) == 10
    assert list(rows[0].keys()) == data.columns
    for row, values in zip(rows, data.rows):
        for col, v in zip(data.columns, values):
            assert row[col] == pytest.approx(float(v), rel=1e-15)


# figures 1-6 at a few points, plus sweeps whose cells reach exponents near +-300
WRITER_SPECS = [FigureSpec(fig_id, points=7) for fig_id in range(1, 7)] + [
    FigureSpec(1, L_min=1e-75, L_max=3e-75, points=5),
    FigureSpec(2, L_min=2e74, L_max=1e75, points=5),
    FigureSpec(4, L_min=1e-74, L_max=1e74, points=5, A_list=(1e-3, 7.0)),
]


def _reference_csv(data):
    lines = [f"# {line}\n" for line in data.metadata] + [",".join(data.columns) + "\n"]
    lines += [",".join(f"{v:.16e}" for v in row) + "\n" for row in data.rows]
    return "".join(lines)


def _reference_json(data):
    rows = [dict(zip(data.columns, map(float, row))) for row in data.rows]
    return json.dumps(rows, indent=1) + "\n"


@pytest.mark.parametrize("spec", WRITER_SPECS, ids=repr)
def test_writers_match_reference_rendering(spec, tmp_path):
    data = figure_series(spec)
    assert np.all(np.isfinite(data.rows))
    write_csv(data, str(tmp_path / "fig.csv"))
    write_json(data, str(tmp_path / "fig.json"))
    assert (tmp_path / "fig.csv").read_text() == _reference_csv(data)
    assert (tmp_path / "fig.json").read_text() == _reference_json(data)


def test_writers_render_non_finite_cells(tmp_path):
    series = [[1.0, -math.inf], [math.nan, -0.0], [math.inf, 5e-324]]
    data = FigureData(["x", "y {0}", "z"], series, ["hand-built"])
    write_csv(data, str(tmp_path / "fig.csv"))
    write_json(data, str(tmp_path / "fig.json"))
    assert (tmp_path / "fig.csv").read_text() == _reference_csv(data)
    text = (tmp_path / "fig.json").read_text()
    assert text == _reference_json(data)
    assert '"y {0}": NaN' in text and '"z": Infinity' in text and '"x": -Infinity' in text


@pytest.mark.parametrize("points", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                    2 * _BLOCK_ROWS + 1])
def test_writers_across_block_boundaries(points, tmp_path):
    hand_built = FigureData(["i", "y"], [[float(i) for i in range(points)],
                                         [math.nan] * (points - 1) + [math.inf]])
    for data in (figure_series(FigureSpec(4, points=points)), hand_built):
        write_csv(data, str(tmp_path / "fig.csv"))
        write_json(data, str(tmp_path / "fig.json"))
        assert (tmp_path / "fig.csv").read_text() == _reference_csv(data)
        assert (tmp_path / "fig.json").read_text() == _reference_json(data)


def test_rows_is_a_new_array_on_each_read(tmp_path):
    data = figure_series(FigureSpec(6, points=9))
    assert all(type(v) is float for col in data.series for v in col)
    write_csv(data, str(tmp_path / "before.csv"))
    series = [list(col) for col in data.series]
    rows = data.rows
    assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
    np.testing.assert_array_equal(rows, np.column_stack(data.series))
    assert data.rows is not rows
    rows[0, 1] = 123.0  # writing into one read reaches no later read, series or file
    np.testing.assert_array_equal(data.rows, np.column_stack(series))
    assert data.series == series
    write_csv(data, str(tmp_path / "after.csv"))
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()


def test_linspace_matches_numpy_bit_for_bit():
    rng = random.Random(2007)
    cases = [(5e-324, 1e-323, 10), (0.5, 5.0, 2), (1e-75, 1e75, 2)]
    for _ in range(500):
        lo, hi = sorted(10.0 ** rng.uniform(-75, 75) for _ in range(2))
        cases.append((lo, hi, rng.choice([2, 3, 7, 200, rng.randint(2, 5000)])))
    for lo, hi, n in cases:
        expected = np.linspace(lo, hi, n).tolist()
        assert list(map(float.hex, _linspace(lo, hi, n))) == list(map(float.hex, expected))
