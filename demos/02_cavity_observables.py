"""Closed-form cavity observables and their consistency relations.

Energy density, energy per area, pressure and the constant diagonal vacuum
stress tensor, with the thermodynamic check P = -dE/dL done numerically
and the conformal tracelessness of the tensor made visible.
"""

from casimirgrav import (
    CavityConfig,
    brown_maclay_tensor,
    central_diff,
    energy_density,
    energy_per_area,
    pressure,
)

print("electromagnetic cavity observables (natural units)")
print(f"  {'L':>5}  {'energy density':>16}  {'energy/area':>16}  {'pressure':>16}")
for L in (0.5, 1.0, 2.0, 5.0):
    cfg = CavityConfig(L, 2)
    print(f"  {L:>5g}  {2 * energy_density(L):>16.6e}  {energy_per_area(cfg):>16.6e}"
          f"  {pressure(cfg):>16.6e}")
print("  scaling: density and pressure fall as L^-4, energy per area as L^-3")

print()
print("pressure as the negative separation-derivative of the energy per area")
for L in (0.5, 1.0, 2.0):
    slope = -central_diff(lambda l: energy_per_area(CavityConfig(l, 2)), L, 1e-4 * L)
    p = pressure(CavityConfig(L, 2))
    print(f"  L = {L:g}: -dE/dL = {slope:.12e}   P = {p:.12e}   "
          f"rel diff = {abs(slope - p) / abs(p):.1e}")

print()
print("vacuum stress tensor at L = 1 (rows/cols ordered t, x, y, z)")
tensor = brown_maclay_tensor(CavityConfig(1.0, 2))
for row in tensor.components:
    print("   " + "  ".join(f"{v:>14.6e}" for v in row))
print(f"  trace with diag(-1,1,1,1): {tensor.trace():g}  (conformal field: exactly zero)")
print(f"  T^33 = pressure: {tensor.components[3, 3] == pressure(CavityConfig(1.0, 2))}")
