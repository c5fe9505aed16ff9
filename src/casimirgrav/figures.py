"""Data series behind the six standard figures, plus CSV/JSON writers.

Each figure sweeps a closed-form observable against plate separation or
plate area. The sweep ranges are library defaults, recorded as comment
metadata in the emitted files. All series are produced in natural units.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityConfig, check_geometry, energy_density, energy_per_area, pressure
from .errors import DomainError
from .weakfield import WeakField, delta_force_per_area, fermi_force_per_area

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
        for L in (self.L_min,) + self.L_list:
            check_geometry(L)
        if not all(A > 0 for A in (self.A_min,) + self.A_list):
            raise DomainError("areas must be positive")


@dataclass(frozen=True)
class FigureData:
    """Column-oriented figure series with provenance metadata lines."""

    columns: list[str]
    rows: np.ndarray
    metadata: list[str] = field(default_factory=list)


def figure_series(spec: FigureSpec) -> FigureData:
    """Evaluate the sweep for ``spec``; rows are (points, n_columns)."""
    field_g = WeakField(spec.g)
    meta = [
        f"figure {spec.fig_id}: {FIGURE_TITLES[spec.fig_id]}",
        "natural units (hbar = c = 1); parameter defaults are artifact choices",
        f"g={spec.g:g} polarizations={spec.polarizations}",
    ]

    if spec.fig_id in (1, 2, 3):
        L = np.linspace(spec.L_min, spec.L_max, spec.points)
        if spec.fig_id == 1:
            name, fn = "energy_density", lambda l: energy_density(l)
        elif spec.fig_id == 2:
            name, fn = "pressure", lambda l: pressure(CavityConfig(l, spec.polarizations))
        else:
            name, fn = "energy_per_area", lambda l: energy_per_area(
                CavityConfig(l, spec.polarizations)
            )
        values = np.array([fn(l) for l in L])
        meta.append(f"L_min={spec.L_min:g} L_max={spec.L_max:g} points={spec.points}")
        return FigureData(["L", name], np.column_stack([L, values]), meta)

    if spec.fig_id == 4:
        L = np.linspace(spec.L_min, spec.L_max, spec.points)
        cols = [L]
        names = ["L"]
        for area in spec.A_list:
            cols.append(
                np.array(
                    [
                        area * delta_force_per_area(field_g, CavityConfig(l, spec.polarizations))
                        for l in L
                    ]
                )
            )
            names.append(f"delta_force[A={area:g}]")
        meta.append(
            f"L_min={spec.L_min:g} L_max={spec.L_max:g} points={spec.points} "
            f"A_list={','.join(f'{a:g}' for a in spec.A_list)}"
        )
        return FigureData(names, np.column_stack(cols), meta)

    if spec.fig_id == 5:
        A = np.linspace(spec.A_min, spec.A_max, spec.points)
        cols = [A]
        names = ["A"]
        for L in spec.L_list:
            slope = delta_force_per_area(field_g, CavityConfig(L, spec.polarizations))
            cols.append(A * slope)
            names.append(f"delta_force[L={L:g}]")
        meta.append(
            f"A_min={spec.A_min:g} A_max={spec.A_max:g} points={spec.points} "
            f"L_list={','.join(f'{l:g}' for l in spec.L_list)}"
        )
        return FigureData(names, np.column_stack(cols), meta)

    L = np.linspace(spec.L_min, spec.L_max, spec.points)
    delta = np.array(
        [delta_force_per_area(field_g, CavityConfig(l, spec.polarizations)) for l in L]
    )
    fermi = np.array(
        [fermi_force_per_area(field_g, CavityConfig(l, spec.polarizations)) for l in L]
    )
    meta.append(f"L_min={spec.L_min:g} L_max={spec.L_max:g} points={spec.points}")
    return FigureData(
        ["L", "delta_force_per_area", "fermi_force_per_area"],
        np.column_stack([L, delta, fermi]),
        meta,
    )


def write_csv(data: FigureData, path: str) -> None:
    """Comma-separated values: '#' metadata lines, header row, 17 significant
    digits per cell so re-parsing round-trips exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in data.metadata:
            fh.write(f"# {line}\n")
        fh.write(",".join(data.columns) + "\n")
        for row in data.rows:
            fh.write(",".join(f"{v:.16e}" for v in row) + "\n")


def write_json(data: FigureData, path: str) -> None:
    """JSON mirror of the CSV columns: an array of row objects."""
    rows = [dict(zip(data.columns, map(float, row))) for row in data.rows]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
