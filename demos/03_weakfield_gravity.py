"""Weak uniform gravity acting on a tilted Casimir apparatus.

Builds the two gauge tables of the metric perturbation, verifies by finite
differences that the gauge vector carries one into the other, evaluates
the gravitational energy shift both by direct quadrature of its three
terms, as one integral over a unit interval, and by the closed form
-A g E_C z0, and walks the force chain Delta F/A = g E_C,
F_iso/A = -2 g E_C, F_fermi/A = -g E_C. Ends with SI numbers for a real
micron-scale cavity in lab gravity.
"""

import math
import warnings

import numpy as np

from casimirgrav import (
    CavityConfig,
    PlateApparatus,
    RegimeWarning,
    SpacetimePoint,
    WeakField,
    delta_energy_closed,
    delta_energy_quadrature,
    delta_force_per_area,
    fermi_force_per_area,
    fractional_correction,
    gauge_field,
    h_fermi,
    h_isotropic,
    isotropic_force_per_area,
    pressure,
)
from casimirgrav.units import energy_like_to_si, gravity_to_natural

warnings.simplefilter("ignore", RegimeWarning)

print("gauge structure at the sample point (t, x, y, z) = (0, 1, 1, 1), g = 1")
fld = WeakField(1.0)
p = SpacetimePoint(0.0, 1.0, 1.0, 1.0)
print("  h_isotropic diagonal:", np.diag(h_isotropic(fld, p)))
print("  h_fermi diagonal:    ", np.diag(h_fermi(fld, p)))
zeta = gauge_field(fld)
h = 1e-5
grad = np.zeros((4, 4))
coords = [p.t, p.x, p.y, p.z]
for mu in range(4):
    plus, minus = list(coords), list(coords)
    plus[mu] += h
    minus[mu] -= h
    dmu = (zeta(SpacetimePoint(*plus)) - zeta(SpacetimePoint(*minus))) / (2 * h)
    grad[mu, :] += dmu
    grad[:, mu] += dmu
target = h_fermi(fld, p) - h_isotropic(fld, p)
print("  FD symmetrized gradient of the gauge vector (diagonal):", np.diag(grad))
print(f"  max |gradient - (h_F - h_I)| = {np.max(np.abs(grad - target)):.2e}")

print()
print("gravitational energy shift: quadrature over the unit interval vs closed form")
print(f"  {'alpha':>6} {'xi0':>5} {'closed':>16} {'quadrature':>16} {'rel diff':>10}")
for alpha, xi0 in ((0.0, 0.5), (math.pi / 6, 0.5), (math.pi / 4, -1.0), (math.pi / 3, 2.0)):
    app = PlateApparatus(1.0, 0.1, xi0, alpha, 2)
    closed = delta_energy_closed(app, fld)
    quad = delta_energy_quadrature(app, fld).value
    rel = abs(quad - closed) / abs(closed)
    print(f"  {alpha:>6.3f} {xi0:>5.1f} {closed:>16.8e} {quad:>16.8e} {rel:>10.1e}")

print()
print("force chain at L = 1, g = 1 (natural units)")
cfg = CavityConfig(1.0, 2)
delta = delta_force_per_area(fld, cfg)
iso = isotropic_force_per_area(fld, cfg)
fermi = fermi_force_per_area(fld, cfg)
print(f"  Delta F / A = g E_C       = {delta:+.10e}")
print(f"  F_iso / A   = -2 g E_C    = {iso:+.10e}")
print(f"  F_fermi / A = F_iso + dF  = {fermi:+.10e}")
print(f"  bookkeeping exact: {fermi == iso + delta}")
print(f"  relative to the flat pressure: g L / 3 = {fractional_correction(fld, cfg):.6f}")

print()
print("the same cavity in SI: L = 1 um plates in lab gravity g = 9.8 m/s^2")
g_nat = gravity_to_natural(9.8)
cfg_um = CavityConfig(1e-6, 2)
fld_lab = WeakField(g_nat)
print(f"  flat Casimir pressure: {energy_like_to_si(pressure(cfg_um)):.4e} Pa")
print(f"  Delta F / A:  {energy_like_to_si(delta_force_per_area(fld_lab, cfg_um)):+.4e} Pa")
print(f"  F_fermi / A:  {energy_like_to_si(fermi_force_per_area(fld_lab, cfg_um)):+.4e} Pa")
print(f"  fractional correction g L / 3 = {fractional_correction(fld_lab, cfg_um):.3e}")
print("  the gravity correction is ~23 orders of magnitude below the flat pressure")
