"""Data series behind the six standard figures, plus CSV/JSON writers.

Each figure sweeps a closed-form observable against plate separation or
plate area. The sweep ranges are library defaults, recorded as comment
metadata in the emitted files. All series are produced in natural units, as
lists of Python floats: sweeps and writers run without numpy, which loads
only when :attr:`FigureData.rows` is read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .cavity import CavityConfig, check_geometry, energy_density, energy_per_area, pressure
from .errors import DomainError, check_integer, check_normal
from .weakfield import WeakField, delta_force_per_area, fermi_force_per_area

if TYPE_CHECKING:
    from collections.abc import Iterator

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


@dataclass(frozen=True)
class FigureSpec:
    """Sweep ranges and fixed parameters for one figure (ids 1-6)."""

    fig_id: int
    L_min: float = 0.5
    L_max: float = 5.0
    points: int = 200
    A_min: float = 0.5
    A_max: float = 5.0
    A_list: tuple[float, ...] = (1.0, 2.0, 4.0)
    L_list: tuple[float, ...] = (0.5, 1.0, 2.0)
    g: float = 1.0
    polarizations: int = 2

    def __post_init__(self) -> None:
        if self.fig_id not in FIGURE_TITLES:
            raise DomainError(f"figure id must be 1..6, got {self.fig_id}")
        if not (self.L_min < self.L_max and self.A_min < self.A_max):
            raise DomainError("sweep ranges require min < max")
        if not 2 <= check_integer(self.points, "points") <= MAX_POINTS:
            raise DomainError(f"sweeps need 2 to {MAX_POINTS} points, got {self.points}")
        for L in (self.L_min, self.L_max) + self.L_list:
            check_geometry(L, self.polarizations)
        if not all(0.0 < A < math.inf for A in (self.A_min, self.A_max) + self.A_list):
            raise DomainError("areas must be positive and finite")


@dataclass(frozen=True)
class FigureData:
    """Column-oriented figure series with provenance metadata lines.

    ``series`` holds one list of Python floats per name in ``columns``, all
    of one length. :attr:`rows` stacks them into a numpy array on first use;
    nothing else here loads numpy."""

    columns: list[str]
    series: list[list[float]]
    metadata: list[str] = field(default_factory=list)

    @cached_property
    def rows(self) -> np.ndarray:
        """The series as one (points, columns) float array, built once on first use."""
        import numpy as np
        return np.column_stack(self.series)


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
    without numpy. A separation sweep builds one :class:`CavityConfig` per
    point from a Python float and derives every column from it, so each cell
    is the scalar closed form; figures 4 and 5 multiply the force change per
    area by each plate area. Raises :class:`DomainError` if any cell leaves the
    double range, or if a figure 4 or 5 product falls below the normal range
    while g is not zero."""
    field_g = WeakField(spec.g)
    pol = spec.polarizations
    meta = [
        f"figure {spec.fig_id}: {FIGURE_TITLES[spec.fig_id]}",
        "natural units (hbar = c = 1); parameter defaults are artifact choices",
        f"g={spec.g:g} polarizations={pol}",
    ]

    products: list[list[float]] = []  # the figure 4 and 5 columns
    if spec.fig_id == 5:
        x = _linspace(spec.A_min, spec.A_max, spec.points)
        slopes = [delta_force_per_area(field_g, CavityConfig(L, pol)) for L in spec.L_list]
        names = ["A"] + [f"delta_force[L={L:g}]" for L in spec.L_list]
        sweep = (f"A_min={spec.A_min:g} A_max={spec.A_max:g} points={spec.points} "
                 f"L_list={','.join(f'{l:g}' for l in spec.L_list)}")
        cols = products = [[area * s for area in x] for s in slopes]
    else:
        x = _linspace(spec.L_min, spec.L_max, spec.points)
        sweep = f"L_min={spec.L_min:g} L_max={spec.L_max:g} points={spec.points}"
        configs = (CavityConfig(l, pol) for l in x)
        if spec.fig_id == 1:  # the energy density is per polarization: no configuration
            names, cols = ["L", "energy_density"], [[energy_density(l) for l in x]]
        elif spec.fig_id == 2:
            names, cols = ["L", "pressure"], [[pressure(c) for c in configs]]
        elif spec.fig_id == 3:
            names, cols = ["L", "energy_per_area"], [[energy_per_area(c) for c in configs]]
        elif spec.fig_id == 4:
            names = ["L"] + [f"delta_force[A={area:g}]" for area in spec.A_list]
            delta = [delta_force_per_area(field_g, c) for c in configs]
            cols = products = [[area * d for d in delta] for area in spec.A_list]
            sweep += f" A_list={','.join(f'{a:g}' for a in spec.A_list)}"
        else:
            names = ["L", "delta_force_per_area", "fermi_force_per_area"]
            cols = [[], []]
            for c in configs:
                cols[0].append(delta_force_per_area(field_g, c))
                cols[1].append(fermi_force_per_area(field_g, c))
    series = [x, *cols]
    what = f"figure {spec.fig_id}"
    # a product that overflows is inf (Python float products do not raise)
    if not all(all(map(math.isfinite, col)) for col in series):
        raise DomainError(f"{what} overflows the double range for these inputs")
    for col in products:
        check_normal(min(map(abs, col)), what, spec.g)
    return FigureData(names, series, meta + [sweep])


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


def _json_number(v: float) -> str:
    """``v`` as :mod:`json` writes it: its repr, or NaN / Infinity / -Infinity."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def write_json(data: FigureData, path: str) -> None:
    """JSON mirror of the CSV columns: an array of row objects, laid out as
    ``json.dump(rows, fh, indent=1)`` lays them out."""
    keys = (json.dumps(c).replace("{", "{{").replace("}", "}}") for c in data.columns)
    row = " {{\n" + ",\n".join(f"  {k}: {{}}" for k in keys) + "\n }}"
    # '{}' formats a float as its repr; a column with a non-finite cell goes through json
    series = [col if all(map(math.isfinite, col)) else list(map(_json_number, col))
              for col in data.series]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        sep = "\n"
        for block in _row_blocks(series, row, ",\n"):
            fh.write(sep)
            fh.write(block)
            sep = ",\n"
        fh.write("\n]\n" if data.series[0] else "]\n")
