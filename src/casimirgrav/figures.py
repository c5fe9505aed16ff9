"""Data series behind the six standard figures, plus CSV/JSON writers.

Each figure sweeps a closed-form observable against plate separation or
plate area. The sweep ranges are library defaults, recorded as comment
metadata in the emitted files. All series are produced in natural units, as
lists of Python floats: sweeps and writers run without numpy, which loads
only when :attr:`FigureData.rows` is read.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .cavity import _energy_density, _energy_per_area, _pressure, check_geometry
# unused here, but bench/tracing.py wraps them on this module and fails without them
from .cavity import CavityConfig, energy_density, energy_per_area, pressure
from .errors import DomainError, FrozenValue, check_finite, check_integer, check_normal
from .weakfield import WeakField

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    import numpy as np
__all__ = ["FigureSpec", "FigureData", "figure_series", "write_csv", "write_json"]

FIGURE_TITLES = {
    1: "Casimir energy density vs plate separation",
    2: "Casimir pressure vs plate separation",
    3: "Casimir energy per unit area vs plate separation",
    4: "force change vs plate separation, one column per plate area",
    5: "force change vs plate area, one column per plate separation",
    6: "force change per area and Fermi force per area vs plate separation",
}

MAX_POINTS = 10**6  # a figure 6 CSV of this many rows is 70 MB
MAX_CELLS = 4 * MAX_POINTS  # figure 4 or 5 at MAX_POINTS with the default three-entry list


class FigureSpec(FrozenValue):
    """Sweep ranges and fixed parameters for one figure (ids 1-6).

    ``fig_id``, ``points`` and ``polarizations`` must be integers (numpy
    integers are stored as ``int``); ``A_list`` (figure 4) and ``L_list``
    (figure 5) take any non-empty iterable of numbers and are stored as
    tuples. A table of more than ``MAX_CELLS`` cells (rows times columns;
    only figure 4 counts ``A_list``, only figure 5 ``L_list``) is refused."""

    __slots__ = ("fig_id", "L_min", "L_max", "points", "A_min", "A_max", "A_list", "L_list",
                 "g", "polarizations")

    def __init__(self, fig_id: int, L_min: float = 0.5, L_max: float = 5.0, points: int = 200,
                 A_min: float = 0.5, A_max: float = 5.0,
                 A_list: Iterable[float] = (1.0, 2.0, 4.0),
                 L_list: Iterable[float] = (0.5, 1.0, 2.0), g: float = 1.0,
                 polarizations: int = 2) -> None:
        fig_id = check_integer(fig_id, "figure id")
        if fig_id not in FIGURE_TITLES:
            raise DomainError(f"figure id must be 1..6, got {fig_id}")
        if not (L_min < L_max and A_min < A_max):
            raise DomainError("sweep ranges require min < max")
        points = check_integer(points, "points")
        if not 2 <= points <= MAX_POINTS:
            raise DomainError(f"sweeps need 2 to {MAX_POINTS} points, got {points}")
        A_list = tuple(A_list)
        L_list = tuple(L_list)
        if not (A_list and L_list):
            raise DomainError("A_list and L_list must each hold at least one value")
        for L in (L_min, L_max) + L_list:
            polarizations = check_geometry(L, polarizations)
        if not all(0.0 < A < math.inf for A in (A_min, A_max) + A_list):
            raise DomainError("areas must be positive and finite")
        g = WeakField(g).g  # GeometryError unless finite, >= 0
        for name, values in (("A_list", A_list), ("L_list", L_list)):
            if len(set(values)) < len(values):  # one column name per value
                raise DomainError(f"{name} must not repeat a value, got {values}")
        cells = points * (1 + {4: len(A_list), 5: len(L_list), 6: 2}.get(fig_id, 1))
        if cells > MAX_CELLS:
            raise DomainError(f"figure {fig_id} would have {cells} cells, "
                              f"over the limit of {MAX_CELLS}")
        super().__init__(fig_id, L_min, L_max, points, A_min, A_max, A_list, L_list, g,
                         polarizations)


class FigureData(FrozenValue):
    """Column-oriented figure series with provenance metadata lines.

    ``series`` holds one list of Python floats per name in ``columns``, all
    of one length; ``metadata`` defaults to a new empty list. :attr:`rows`
    stacks the series into a numpy array on first use; nothing else here
    loads numpy."""

    __slots__ = ("columns", "series", "metadata", "_rows")

    def __init__(self, columns: list[str], series: list[list[float]],
                 metadata: list[str] | None = None) -> None:
        super().__init__(columns, series, [] if metadata is None else metadata)

    @property
    def rows(self) -> np.ndarray:
        """The series as one (points, columns) float array, built once on first use."""
        try:
            return self._rows
        except AttributeError:
            import numpy as np
            object.__setattr__(self, "_rows", np.column_stack(self.series))
            return self._rows


def _echo(value: float, spec: str = "g") -> str:
    """An input as ``format(value, spec)`` if that text reads back as the same
    double, else as its repr: an input printed back always round-trips."""
    text = format(value, spec)
    return text if float(text) == value else repr(value)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n).tolist()`` to the bit: i * step + lo, numpy's
    fallback i / (n - 1) * (hi - lo) + lo when the step underflows to zero,
    and a last point of exactly ``hi``."""
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        xs = [i / div * delta + lo for i in range(n)]
    else:
        xs = [i * step + lo for i in range(n)]
    xs[-1] = hi
    return xs


def figure_series(spec: FigureSpec) -> FigureData:
    """Evaluate the sweep for ``spec`` as one list of Python floats per column,
    without numpy, from the closed forms' float kernels: :class:`FigureSpec` has
    checked every separation and g, so no per-point object is built. Figures 4
    and 5 multiply Delta F / A = g E_C by each plate area. Each column is checked
    once, raising :class:`DomainError` as the closed forms do on its first bad cell."""
    g, pol = spec.g, spec.polarizations
    meta = [
        f"figure {spec.fig_id}: {FIGURE_TITLES[spec.fig_id]}",
        "natural units (hbar = c = 1); parameter defaults are artifact choices",
        f"g={_echo(spec.g)} polarizations={pol}",
    ]

    if spec.fig_id == 5:
        x = _linspace(spec.A_min, spec.A_max, spec.points)
        sweep = (f"A_min={_echo(spec.A_min)} A_max={_echo(spec.A_max)} points={spec.points} "
                 f"L_list={','.join(map(_echo, spec.L_list))}")
    else:
        x = _linspace(spec.L_min, spec.L_max, spec.points)
        sweep = f"L_min={_echo(spec.L_min)} L_max={_echo(spec.L_max)} points={spec.points}"
    if spec.fig_id >= 4:
        delta = [g * _energy_per_area(l, pol) for l in (spec.L_list if spec.fig_id == 5 else x)]
        # Over [L_MIN, L_MAX] a g E_C column spans at most 450 decades, the double range
        # 616: it never both overflows and underflows, so its extremes give the first error.
        check_normal(max(map(abs, delta)), "Delta F / A", g)
        check_normal(min(map(abs, delta)), "Delta F / A", g)
    products: list[list[float]] = []  # the figure 4 and 5 columns
    if spec.fig_id == 1:  # the energy density is per polarization
        names, cols = ["L", "energy_density"], [[_energy_density(l) for l in x]]
    elif spec.fig_id == 2:
        names, cols = ["L", "pressure"], [[_pressure(l, pol) for l in x]]
    elif spec.fig_id == 3:
        names, cols = ["L", "energy_per_area"], [[_energy_per_area(l, pol) for l in x]]
    elif spec.fig_id == 4:
        names = ["L"] + [f"delta_force[A={_echo(area)}]" for area in spec.A_list]
        cols = products = [[area * d for d in delta] for area in spec.A_list]
        sweep += f" A_list={','.join(map(_echo, spec.A_list))}"
    elif spec.fig_id == 5:
        names = ["A"] + [f"delta_force[L={_echo(L)}]" for L in spec.L_list]
        cols = products = [[area * s for area in x] for s in delta]
    else:  # F^F / A = F^I / A + Delta F / A, summed as fermi_force_per_area sums it
        names = ["L", "delta_force_per_area", "fermi_force_per_area"]
        check_finite(-2.0 * max(map(abs, delta)), "F_iso / A")  # F^I / A = -2 Delta F / A
        cols = [delta, [-2.0 * d + d for d in delta]]
    # a product that overflows is inf (Python float products do not raise)
    if not all(all(map(math.isfinite, col)) for col in products):
        raise DomainError(f"figure {spec.fig_id} overflows the double range for these inputs")
    for col in products:
        check_normal(min(map(abs, col)), f"figure {spec.fig_id}", g)
    return FigureData(names, [x, *cols], meta + [sweep])


_BLOCK_ROWS = 4096  # rows per format call: one call per cell is slow, one per table is large


def _row_blocks(series: list[list], row: str, sep: str = "") -> Iterator[str]:
    """The rows of ``series``, each rendered by the ``str.format`` template
    ``row`` and joined by ``sep``, as one string per block of rows."""
    n, width = len(series[0]), len(series)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        cells = [None] * ((stop - start) * width)
        for j, col in enumerate(series):
            cells[j::width] = col[start:stop]
        yield sep.join([row] * (stop - start)).format(*cells)


def write_csv(data: FigureData, path: str) -> None:
    """Comma-separated values: '#' metadata lines, header row, 17 significant
    digits per cell so re-parsing round-trips exactly."""
    row = ",".join(["{:.16e}"] * len(data.columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for line in data.metadata:
            fh.write(f"# {line}\n")
        fh.write(",".join(data.columns) + "\n")
        fh.writelines(_row_blocks(data.series, row))


def write_json(data: FigureData, path: str) -> None:
    """JSON mirror of the CSV columns: an array of row objects, laid out as
    ``json.dump(rows, fh, indent=1)`` lays them out."""
    import json  # only JSON exports load it
    keys = (json.dumps(c).replace("{", "{{").replace("}", "}}") for c in data.columns)
    row = " {{\n" + ",\n".join(f"  {k}: {{}}" for k in keys) + "\n }}"
    # '{}' formats a float as its repr; a column with a non-finite cell is
    # rendered to strings first, its NaN and infinities by json
    series = [col if all(map(math.isfinite, col))
              else [repr(v) if math.isfinite(v) else json.dumps(v) for v in col]
              for col in data.series]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        sep = "\n"
        for block in _row_blocks(series, row, ",\n"):
            fh.write(sep)
            fh.write(block)
            sep = ",\n"
        fh.write("\n]\n" if data.series[0] else "]\n")
