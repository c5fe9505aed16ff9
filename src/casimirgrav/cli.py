"""Command-line interface.

Subcommands::

    compute     energy-density | energy-per-area | pressure | stress-tensor
    gravity     weak-field corrections (closed form or quadrature)
    figure      emit the data series behind figures 1-6 as CSV or JSON
    regularize  compare the three regularization schemes
    zeta        Riemann zeta for real s > 1

Each handler computes and returns its stdout lines. :func:`main` prints
them, after each distinct :class:`RegimeWarning` as ``warning:`` on stderr,
only once the handler has returned, so a failure prints no partial output
and no warning. Exit codes: 0 success, 2 argument error (a bad option, or
any :class:`DomainError`: an input outside the domain, a result outside
the double range, a repeated figure 4 or 5 list entry), 3 numerical
failure, 4 I/O failure (an unwritable ``--out``, or stdout closed before
the output is read, which prints no error message, since stderr may be
the same closed pipe). In SI mode lengths are meters, gravity is an
acceleration in m/s^2 and energy-like outputs are converted through hbar*c.
Every default is the library's, as a handler passes on only the library
options given; but ``gravity --g`` is 1 unless given (:class:`WeakField`: 0).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from .cavity import (CavityConfig, _stress_diagonal, _trace, energy_density, energy_per_area,
                     pressure)
# unused here, but bench/tracing.py wraps it on this module and fails without it
from .cavity import brown_maclay_tensor
from .errors import CasimirError, DomainError, RegimeWarning
from .figures import FIGURE_TITLES, FigureSpec, _echo, figure_series, write_csv, write_json
from .numerics import QuadratureSpec, relative_discrepancy
from .regularization import compare_schemes, riemann_zeta
from .units import energy_like_to_si, gravity_to_natural
from .weakfield import (
    PlateApparatus,
    WeakField,
    delta_energy_closed,
    delta_energy_quadrature,
    delta_force_per_area,
    fermi_force_per_area,
    fractional_correction,
    isotropic_force_per_area,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise DomainError(f"empty list: {text!r}")
    return values


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The options among ``names`` given on the command line (the rest are unset)."""
    return {name: getattr(args, name) for name in names if name in args}


def _add_units_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--units",
        choices=["natural", "si"],
        default="natural",
        help="natural (hbar=c=1) or si (meters in, J/Pa out)",
    )


def _cmd_compute(args: argparse.Namespace) -> list[str]:
    if args.units == "si":
        out, unit = energy_like_to_si, (" J/m^2" if args.quantity == "energy-per-area" else " Pa")
    else:
        out, unit = float, ""
    cfg = CavityConfig(args.L, **_given(args, "polarizations"))
    if args.quantity == "energy-density":
        return [f"energy density (one polarization) = {_fmt(out(energy_density(args.L)))}{unit}"]
    if args.quantity == "energy-per-area":
        return [f"energy per area = {_fmt(out(energy_per_area(cfg)))}{unit}"]
    if args.quantity == "pressure":
        return [f"pressure = {_fmt(out(pressure(cfg)))}{unit}"]
    # the float kernels behind brown_maclay_tensor, so this command loads no numpy;
    # a store_true flag is in args only when given
    diagonal = _stress_diagonal(cfg.L, cfg.polarizations, "flip_transverse_y" in args)
    return [f"vacuum stress tensor T^(mu nu){',' + unit if unit else ''}:",
            *["  " + "  ".join(f"{out(d if mu == nu else 0.0):>22.15g}" for nu in range(4))
              for mu, d in enumerate(diagonal)],
            f"trace (eta_mn T^mn) = {_fmt(out(_trace(diagonal)))}"]


def _cmd_gravity(args: argparse.Namespace) -> list[str]:
    app = PlateApparatus(args.a, args.L, **_given(args, "xi0", "alpha", "polarizations"))
    fld = WeakField(args.g)
    if args.units == "si":
        out, energy, per_area = energy_like_to_si, " J", " Pa"
        fld = WeakField(gravity_to_natural(fld.g))
    else:
        out, energy, per_area = float, "", ""
    cfg = app.cavity()

    closed = delta_energy_closed(app, fld)
    spec = QuadratureSpec(**_given(args, "relative_tolerance"))  # checked with either method
    if args.method == "quadrature":
        quad = delta_energy_quadrature(app, fld, spec)
        delta_e = quad.value
        discrepancy = relative_discrepancy([closed, quad.value])
    else:
        delta_e = closed
    lines = [f"Delta E_g ({args.method}) = {_fmt(out(delta_e))}{energy}"]
    if args.method == "quadrature" and closed == 0:  # a relative gap to 0 reads as 1 on noise
        lines.append(f"absolute discrepancy vs closed form (exactly 0) = {abs(delta_e):.3e}")
    elif args.method == "quadrature":
        lines.append(f"relative discrepancy vs closed form = {discrepancy:.3e}")
    return lines + [
        f"Delta F / A = {_fmt(out(delta_force_per_area(fld, cfg)))}{per_area}",
        f"F_iso / A   = {_fmt(out(isotropic_force_per_area(fld, cfg)))}{per_area}",
        f"F_fermi / A = {_fmt(out(fermi_force_per_area(fld, cfg)))}{per_area}",
        f"fractional correction (Delta F / F_flat) = {_fmt(fractional_correction(fld, cfg))}",
    ]


def _cmd_figure(args: argparse.Namespace) -> list[str]:
    options = {name: _parse_float_list(value) if name.endswith("_list") else value
               for name, value in _given(args, *FigureSpec.__slots__).items()}
    data = figure_series(FigureSpec(**options))
    if args.format == "csv":
        write_csv(data, args.out)
    else:
        write_json(data, args.out)
    return [f"figure {args.fig_id}: wrote {len(data.series[0])} rows x "
            f"{len(data.columns)} columns to {args.out}"]


def _cmd_regularize(args: argparse.Namespace) -> list[str]:
    report = compare_schemes(args.L, **_given(args, "n_terms"),
                             quad=QuadratureSpec(**_given(args, "relative_tolerance")))
    return [f"scalar energy per area at L = {_echo(args.L, '.15g')} (natural units):",
            *[f"  {kind.value:<12} value = {_fmt(result.value)}   "
              f"error bound = {result.error_bound:.3e}"
              for kind, result in report.energy_per_area.items()],
            f"max pairwise relative discrepancy = {report.max_relative_discrepancy:.3e}"]


def _cmd_zeta(args: argparse.Namespace) -> list[str]:
    return [f"zeta({_echo(args.s, '.15g')}) = {_fmt(riemann_zeta(args.s))}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimirgrav",
        description="Casimir cavity observables and weak-field gravity corrections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="closed-form cavity observables",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("quantity",
                   choices=["energy-density", "energy-per-area", "pressure", "stress-tensor"])
    p.add_argument("--L", type=float, required=True, help="plate separation")
    p.add_argument("--polarizations", type=int, choices=[1, 2])
    p.add_argument("--flip-transverse-y", action="store_true",
                   help="stress-tensor only: the non-traceless diag(1,-1,1,3) variant")
    _add_units_flag(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("gravity", help="weak-field corrections to the Casimir force",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--L", type=float, required=True, help="plate separation")
    p.add_argument("--a", type=float, required=True, help="transverse plate side")
    p.add_argument("--xi0", type=float, help="center offset along plate normal")
    p.add_argument("--alpha", type=float, help="tilt from gravity direction (rad)")
    p.add_argument("--g", type=float, default=1.0,
                   help="gravity order parameter (natural: 1/length; si: m/s^2)")
    p.add_argument("--polarizations", type=int, choices=[1, 2])
    p.add_argument("--method", choices=["closed", "quadrature"], default="closed")
    p.add_argument("--tolerance", dest="relative_tolerance", metavar="TOLERANCE", type=float,
                   help="quadrature relative tolerance")
    _add_units_flag(p)
    p.set_defaults(func=_cmd_gravity)

    p = sub.add_parser("figure", help="emit figure data series (natural units)",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--id", dest="fig_id", type=int, required=True, choices=FIGURE_TITLES)
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--points", type=int)
    p.add_argument("--Lmin", dest="L_min", metavar="LMIN", type=float)
    p.add_argument("--Lmax", dest="L_max", metavar="LMAX", type=float)
    p.add_argument("--Amin", dest="A_min", metavar="AMIN", type=float)
    p.add_argument("--Amax", dest="A_max", metavar="AMAX", type=float)
    p.add_argument("--A-list", dest="A_list", help="comma-separated areas (figure 4)")
    p.add_argument("--L-list", dest="L_list", help="comma-separated separations (figure 5)")
    p.add_argument("--g", type=float)
    p.add_argument("--polarizations", type=int, choices=[1, 2])
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("regularize", help="compare the three regularization schemes",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--L", type=float, required=True, help="plate separation")
    p.add_argument("--n-terms", dest="n_terms", type=int, help="image-sum term count")
    p.add_argument("--tolerance", dest="relative_tolerance", metavar="TOLERANCE", type=float,
                   help="abel-plana quadrature relative tolerance")
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("zeta", help="Riemann zeta for real s > 1")
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(func=_cmd_zeta)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad arguments, 0 on --help
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RegimeWarning)
            lines = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CasimirError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:  # no message: stderr may be the same closed pipe
        # point stdout at devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
