"""Data series behind the six standard figures, plus CSV/JSON writers.

Each figure sweeps a closed-form observable against plate separation or
plate area. The sweep ranges are library defaults, recorded as comment
metadata in the emitted files. All series are produced in natural units.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .cavity import CavityConfig, check_geometry, energy_density, energy_per_area, pressure
from .errors import DomainError
from .weakfield import WeakField, delta_force_per_area, fermi_force_per_area

if TYPE_CHECKING:
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
        if self.points < 2:
            raise DomainError("sweeps need at least 2 points")
        for L in (self.L_min, self.L_max) + self.L_list:
            check_geometry(L)
        if not all(0.0 < A < math.inf for A in (self.A_min, self.A_max) + self.A_list):
            raise DomainError("areas must be positive and finite")


@dataclass(frozen=True)
class FigureData:
    """Column-oriented figure series with provenance metadata lines."""

    columns: list[str]
    rows: np.ndarray
    metadata: list[str] = field(default_factory=list)


def figure_series(spec: FigureSpec) -> FigureData:
    """Evaluate the sweep for ``spec``; rows are (points, n_columns). A separation
    sweep builds one :class:`CavityConfig` per point from a Python float and
    derives every column from it, so each cell is the scalar closed form."""
    import numpy as np
    field_g = WeakField(spec.g)
    pol = spec.polarizations
    meta = [
        f"figure {spec.fig_id}: {FIGURE_TITLES[spec.fig_id]}",
        "natural units (hbar = c = 1); parameter defaults are artifact choices",
        f"g={spec.g:g} polarizations={pol}",
    ]

    if spec.fig_id == 5:
        A = np.linspace(spec.A_min, spec.A_max, spec.points)
        slopes = [delta_force_per_area(field_g, CavityConfig(L, pol)) for L in spec.L_list]
        names = ["A"] + [f"delta_force[L={L:g}]" for L in spec.L_list]
        meta.append(
            f"A_min={spec.A_min:g} A_max={spec.A_max:g} points={spec.points} "
            f"L_list={','.join(f'{l:g}' for l in spec.L_list)}"
        )
        return FigureData(names, np.column_stack([A] + [A * s for s in slopes]), meta)

    L = np.linspace(spec.L_min, spec.L_max, spec.points)
    sweep = f"L_min={spec.L_min:g} L_max={spec.L_max:g} points={spec.points}"
    points = L.tolist()
    configs = (CavityConfig(l, pol) for l in points)
    if spec.fig_id == 1:  # the energy density is per polarization: no configuration
        names, cols = ["L", "energy_density"], [[energy_density(l) for l in points]]
    elif spec.fig_id == 2:
        names, cols = ["L", "pressure"], [[pressure(c) for c in configs]]
    elif spec.fig_id == 3:
        names, cols = ["L", "energy_per_area"], [[energy_per_area(c) for c in configs]]
    elif spec.fig_id == 4:
        names = ["L"] + [f"delta_force[A={area:g}]" for area in spec.A_list]
        delta = np.array([delta_force_per_area(field_g, c) for c in configs])
        cols = [area * delta for area in spec.A_list]
        sweep += f" A_list={','.join(f'{a:g}' for a in spec.A_list)}"
    else:
        names = ["L", "delta_force_per_area", "fermi_force_per_area"]
        cols = [np.array([(delta_force_per_area(field_g, c), fermi_force_per_area(field_g, c))
                          for c in configs])]
    return FigureData(names, np.column_stack([L, *cols]), meta + [sweep])


def write_csv(data: FigureData, path: str) -> None:
    """Comma-separated values: '#' metadata lines, header row, 17 significant
    digits per cell so re-parsing round-trips exactly."""
    row = ",".join(["{:.16e}"] * len(data.columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for line in data.metadata:
            fh.write(f"# {line}\n")
        fh.write(",".join(data.columns) + "\n")
        fh.writelines(row.format(*values) for values in data.rows.tolist())


def _json_number(v: float) -> str:
    """``v`` as :mod:`json` writes it: its repr, or NaN / Infinity / -Infinity."""
    return repr(v) if math.isfinite(v) else json.dumps(v)


def write_json(data: FigureData, path: str) -> None:
    """JSON mirror of the CSV columns: an array of row objects, laid out as
    ``json.dump(rows, fh, indent=1)`` lays them out."""
    keys = (json.dumps(c).replace("{", "{{").replace("}", "}}") for c in data.columns)
    row = " {{\n" + ",\n".join(f"  {k}: {{}}" for k in keys) + "\n }}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        sep = "\n"
        for values in data.rows.tolist():
            fh.write(sep + row.format(*map(_json_number, values)))
            sep = ",\n"
        fh.write("\n]\n" if len(data.rows) else "]\n")
