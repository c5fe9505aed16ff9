"""Check that a change gives the same outputs as its parent, to the bit.

    git archive <parent> | tar -x -C ../parent
    python3 tools/same_outputs.py --parent ../parent --change .

Each tree's ``src/casimirgrav`` runs one fixed list in a fresh interpreter:

- the package's public top-level names, and the ``__all__`` of ``units`` and
  ``figures``, which the top level does not re-export, with the signature of
  each callable among them and the attributes of each class, so that any
  drift in the API shows, a dropped default or method too;
- the CLI, in-process through ``cli.main``: every subcommand in natural and
  SI units, ``--help``, argument errors, the documented exit-2 cases
  (out-of-domain inputs, results past the double range, SI and natural
  underflow, a repeated figure list value, a figure past the cell limit),
  tilts near a zero of cos or far from 0, quadrature energy shifts at
  plate offsets of 1e13 and 1e20 (L = 0.01, where xi0 +- L/2 round), at
  ``--alpha 0`` (a linear integrand the rule integrates exactly) and at
  ``--alpha 1e-310`` (a subnormal transverse integral), an
  exit-4 write, and inputs that 6 or 15 significant digits would round,
  which each command prints back as they read. No CLI input is known to
  exit 3, so the list has none; a library ``ConvergenceError`` is
  recorded below. Each run
  records its exit code, standard output and standard error;
- figures 1-6 in CSV and JSON at 200, 4 095, 4 096 and 4 097 points, and
  with each sweep option: the bytes of each file;
- ``SeriesResult`` records by ``float.hex`` for every producer: the tail
  sum over p in [1.0001, 12] and N in {1, 2, 9741, 9742, 10^4, 10^5, 10^6},
  the image sum over the same N, ``riemann_zeta`` over s in (1, 54], the
  Abel-Plana regulators, seeded ``compare_schemes`` and energy-shift draws
  over tolerances 1e-12 to 1e-3 (each draw also at alpha = 0 and at the
  default tolerance), energy shifts at plate offsets of 1e10 to 1e20, at
  alpha = 1e-310 (a subnormal transverse integral) and at xi0 = 0 with
  alpha = +-pi/2 (the transverse integral carries the whole result),
  ``integrate_1d`` / ``integrate_nd`` on symmetric integrands that split,
  one of them through mirror panels that tie on error, ``integrate_nd`` on
  the benchmark's volume integrand k (xi cos(alpha) + eta sin(alpha)) over
  [xi0 -+ L/2] x [-a/2, a/2]^2 at seeded apparatus, and on four integrals
  below the normal range (1e-310 (x + 0.3) on [0, 1], 3e-320 x^2 on
  [0.1, 1], 1e-310 (x + 2 y + 0.3) on [0, 1] x [0, 1/2], 1e-310 x y z on
  [0.1, 1]^3), whose bound is the gradual-underflow term, and
  ``integrate_1d`` on two integrands on [0, inf) that are hard for the rule,
  t^91 e^-t at 1e-4 and 1e-3 and sin(10 t) e^-t at 1e-6 and 1e-9; an input
  the producer refuses records the error's type and message.

Every difference is printed with its relative size, and the exit status is
1 on any difference, 0 otherwise. Both trees take about 8 s together on a
shared 2-core VM (Python 3.11).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import random
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
RECORDS = "records.json"
FILES = "files"  # figure outputs, relative to the recording directory

SUM_EXPONENTS = (1.0001, 1.5, 2.0, math.e, 3.0, math.pi, 4.0, 6.5, 9.0, 12.0)
SUM_TERMS = (1, 2, 9741, 9742, 10**4, 10**5, 10**6)
TOLERANCES = tuple(10.0 ** -k for k in range(12, 2, -1))  # 1e-12 ... 1e-3
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan", re.I)


def cli_runs() -> list[list[str]]:
    """The argv of every recorded CLI run; figure outputs go under ``FILES``."""
    runs = [["--help"], [], ["entropy"]]
    runs += [[command, "--help"] for command in
             ("compute", "gravity", "figure", "regularize", "zeta")]
    for quantity in ("energy-density", "energy-per-area", "pressure", "stress-tensor"):
        runs += [["compute", quantity, "--L", "1"],
                 ["compute", quantity, "--L", "0.37", "--polarizations", "1"],
                 ["compute", quantity, "--L", "1e-6", "--units", "si"],
                 ["compute", quantity, "--L", "1e75", "--units", "si"],
                 ["compute", quantity, "--L", "1e-78"]]
    runs += [
        ["compute", "stress-tensor", "--L", "1", "--flip-transverse-y"],
        ["compute", "stress-tensor", "--L", "1e70", "--units", "si"],
        ["compute", "pressure", "--L", "0"],
        ["compute", "pressure", "--L", "nan"],
        ["compute", "pressure", "--L", "inf"],
        ["compute", "pressure", "--L", "1e300"],
        ["compute", "pressure", "--L", "1", "--polarizations", "3"],
        ["compute", "entropy", "--L", "1"],
        ["compute", "pressure"],
    ]
    for method in ("closed", "quadrature"):
        m = ["--method", method]
        runs += [
            ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", *m],
            ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--alpha", "1.2", "--g",
             "0.01", "--polarizations", "1", *m],
            ["gravity", "--L", "0.1", "--a", "0.5", "--xi0", "0.02", "--g", "0.3", *m],
            ["gravity", "--L", "1e-6", "--a", "1e-4", "--g", "9.8", "--units", "si", *m],
            ["gravity", "--L", "1e-6", "--a", "1e-4", "--xi0", "1e-5", "--g", "1e-300",
             "--units", "si", *m],
            ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--g", "0", *m],
            ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0", "--g", "0.3", *m],
            ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--g", "1e-320", *m],
            ["gravity", "--L", "1e70", "--a", "1e71", "--xi0", "1", "--g", "1e-300", *m],
            ["gravity", "--L", "0.1", "--a", "1e200", "--xi0", "0.5", *m],
            ["gravity", "--L", "0.1", "--a", "1", "--xi0", "1e307", "--g", "1e300", *m],
            ["gravity", "--L", "1e-75", "--a", "1e-70", "--xi0", "1e-300", "--g", "1e85", *m],
            ["gravity", "--L", "nan", "--a", "1", *m],
            ["gravity", "--L", "0.1", "--a", "nan", *m],
            ["gravity", "--L", "0.1", "--a", "1", "--g", "inf", *m],
        ]
        # tilts near a zero of cos, and far from 0: a reduction before cos loses sign or digits
        runs += [["gravity", "--L", "0.01", "--a", "1", "--xi0", "0.001", "--g", "1e-3", alpha, *m]
                 for alpha in ("--alpha=1.5707963267948966", "--alpha=-1.5707963267948966",
                               "--alpha=1e15", "--alpha=-1e15", "--alpha=1e300")]
    runs += [["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--method", "quadrature",
              "--tolerance", tol] for tol in ("1e-12", "1e-6", "1e-3", "0.5", "0")]
    # plate offsets where xi0 +- L/2 round, an upright apparatus, whose
    # integrand the rule integrates exactly, and a tilt whose transverse
    # integral is subnormal
    runs += [["gravity", "--L", "0.01", "--a", "1", "--xi0", xi0, "--g", g, "--method",
              "quadrature"] for xi0, g in (("1e13", "1e-20"), ("1e20", "1e-3"))]
    runs += [["gravity", "--L", "0.07649575060165491", "--a", "76.4957506016549", "--xi0",
              "0.027769238218540142", "--g", "0.004175415730934189", "--alpha", "0",
              "--method", "quadrature"]]
    runs += [["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--alpha", "1e-310",
              "--method", "quadrature"]]
    # a closed-form --tolerance, and an SI --g refused before its conversion
    runs += [["gravity", "--L", "0.1", "--a", "1", "--tolerance", "5"],
             *[["gravity", "--L", "0.1", "--a", "1", "--units", "si", "--g", g]
               for g in ("-1", "nan")]]
    runs += [["regularize", "--L", L] for L in ("1", "1e-3", "7.3", "1e3", "-1", "nan",
                                                  "1e300")]
    runs += [["regularize", "--L", "1", "--n-terms", n] for n in
             ("1", "2", "100", "9741", "100000", "1000000", "0", "1000001", "2.5")]
    runs += [["regularize", "--L", "1", "--tolerance", tol] for tol in ("1e-12", "1e-3", "0.5")]
    runs += [["zeta", "--s", s] for s in
             ("4", "2", "1.0001", "2.5", "10", "53.9", "54", "60", "1e308", "1", "0.5", "nan",
              "inf", "x")]
    for fig in range(1, 7):
        for fmt in ("csv", "json"):
            runs += [["figure", "--id", str(fig), "--points", str(n), "--format", fmt,
                      "--out", f"{FILES}/figure{fig}-{n}.{fmt}"] for n in (200, 4095, 4096, 4097)]
        out = ["--out", f"{FILES}/figure{fig}-options.csv"]
        runs += [
            ["figure", "--id", str(fig), "--Lmin", "0.1", "--Lmax", "20", "--Amin", "0.1",
             "--Amax", "30", "--A-list", "0.5,3", "--L-list", "0.25,4", "--g", "0.01",
             "--polarizations", "1", "--points", "300", *out],
            ["figure", "--id", str(fig), "--Lmin", "1e-75", "--Lmax", "1e-74", "--g", "1e-300",
             "--out", f"{FILES}/figure{fig}-small.csv"],
            ["figure", "--id", str(fig), "--Lmin", "1e74", "--Lmax", "1e75", "--g", "0",
             "--out", f"{FILES}/figure{fig}-large.csv"],
            ["figure", "--id", str(fig), "--g", "1e308", "--Lmin", "0.1", *out],
            ["figure", "--id", str(fig), "--g", "nan", *out],
        ]
    runs += [
        ["figure", "--id", "4", "--A-list", "1e308", "--Lmin", "0.01", "--Lmax", "0.02",
         "--out", f"{FILES}/err.csv"],
        ["figure", "--id", "5", "--Amax", "1e308", "--L-list", "0.01", "--out", f"{FILES}/err.csv"],
        ["figure", "--id", "4", "--A-list", "1e-320", "--out", f"{FILES}/err.csv"],
        ["figure", "--id", "5", "--Amin", "1e-320", "--Amax", "1e-319", "--out",
         f"{FILES}/err.csv"],
        ["figure", "--id", "1", "--Lmin", "1e-100", "--Lmax", "1e-99", "--out", f"{FILES}/err.csv"],
        ["figure", "--id", "1", "--Lmin", "5", "--Lmax", "1", "--out", f"{FILES}/err.csv"],
        ["figure", "--id", "1", "--points", "1000001", "--out", f"{FILES}/err.csv"],
        ["figure", "--id", "4", "--A-list", "1,inf", "--out", f"{FILES}/err.csv"],
        ["figure", "--id", "4", "--A-list", ",", "--out", f"{FILES}/err.csv"],
        ["figure", "--id", "7", "--out", f"{FILES}/err.csv"],
        ["figure", "--id", "1", "--out", "no-such-dir/figure1.csv"],
    ]
    # inputs that 6 (:g) or 15 significant digits round, printed back as they read
    runs += [
        ["figure", "--id", "4", "--A-list", "1,1.0000001", "--Lmax", "2.0000001", "--g",
         "0.30000000000000004", "--format", "json", "--out", f"{FILES}/figure4-round-trip.json"],
        ["figure", "--id", "5", "--L-list", "0.5,0.5000001", "--Amin", "0.30000000000000004",
         "--out", f"{FILES}/figure5-round-trip.csv"],
        ["zeta", "--s", "1.0000000000000002"],
        ["regularize", "--L", "1.0000000000000002"],
    ]
    # a repeated list value, which would name two columns alike
    runs += [
        ["figure", "--id", "4", "--A-list", "1,1", "--format", "json",
         "--out", f"{FILES}/figure4-repeat.json"],
        ["figure", "--id", "5", "--L-list", "0.5,0.5", "--out", f"{FILES}/figure5-repeat.csv"],
    ]
    # a table past the cell limit, refused before the sweep
    runs += [["figure", "--id", "4", "--A-list", "1,2,3,4", "--points", "1000000",
              "--out", f"{FILES}/figure4-too-many-cells.csv"]]
    return runs


def run_cli(argv: list[str]) -> dict:
    """Exit code, standard output and standard error of ``cli.main(argv)``."""
    from casimirgrav.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def fields(value):
    """A library result as JSON: floats by ``float.hex``, a ``SeriesResult``
    and a ``SchemeComparison`` field by field."""
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "terms_used"):
        return {"value": value.value.hex(), "error_bound": value.error_bound.hex(),
                "terms_used": value.terms_used}
    # keyed by SchemeKind today, by scheme name once ROADMAP item 7 lands
    return {"max_relative_discrepancy": value.max_relative_discrepancy.hex(),
            **{getattr(kind, "value", kind): fields(r)
               for kind, r in value.energy_per_area.items()}}


def attempt(f, *args):
    """``fields(f(*args))``, or the type and message of the exception it raises:
    a package error is an output, and any other exception is recorded so that
    the comparison shows it."""
    try:
        return fields(f(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def library_records() -> dict:
    """Seeded ``SeriesResult`` and float records of every producer, by call."""
    from casimirgrav.numerics import (Interval, QuadratureSpec, integrate_1d, integrate_nd,
                                      tail_bounded_power_sum)
    from casimirgrav.regularization import (abel_plana_regularized_power_sum, compare_schemes,
                                            energy_density_image_sum,
                                            energy_per_area_abel_plana, riemann_zeta)
    from casimirgrav.weakfield import PlateApparatus, WeakField, delta_energy_quadrature

    rng = random.Random(20261019)
    records = {}

    def add(name, f, *args):
        records[f"{name}{args!r}"] = attempt(f, *args)

    exponents = SUM_EXPONENTS + tuple(rng.uniform(1.0001, 12.0) for _ in range(6))
    for p in exponents:
        scale = 1.0 if p in SUM_EXPONENTS else rng.choice((-1.0, 1.0)) * _log_uniform(
            rng, 1e-6, 1e6)
        for n in SUM_TERMS:
            add("tail_bounded_power_sum", tail_bounded_power_sum, p, scale, n)
    # a subnormal (p = 1024.5) and a zero (p = inf) term, then refused inputs
    for p, n in ((300.0, 2), (1024.5, 2), (math.inf, 2), (300.0, 10**6), (1.0, 10), (0.5, 10),
                 (4.0, 0), (4.0, 2.0)):
        add("tail_bounded_power_sum", tail_bounded_power_sum, p, -1.0, n)
    for L in (1e-3, 0.37, 1.0, 1e3):
        for n in SUM_TERMS:
            add("energy_density_image_sum", energy_density_image_sum, L, n)
    add("energy_density_image_sum", energy_density_image_sum, 1.0, 10**6 + 1)
    for s in [1.0 + k / 16.0 for k in range(1, 849)] + [1.0001, 1.0 + 2.0 ** -20, 53.99999,
                                                         1e308, 1.0, math.nan, math.inf]:
        add("riemann_zeta", riemann_zeta, s)

    specs = [QuadratureSpec(tol) for tol in TOLERANCES]
    for p in (*range(1, 10), 149, 150, 0, 151):
        add("abel_plana_regularized_power_sum", abel_plana_regularized_power_sum, p)
    for L in (1e-3, 1.0, 1e3):
        for spec in specs:
            add("energy_per_area_abel_plana", energy_per_area_abel_plana, L, spec)
    for _ in range(16):
        add("compare_schemes", compare_schemes, _log_uniform(rng, 1e-3, 1e3),
            round(_log_uniform(rng, 1.0, 1e5)), rng.choice(specs))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # RegimeWarning on wide or strong draws
        for _ in range(8):
            a = rng.uniform(0.5, 5.0)
            L = a * _log_uniform(rng, 1e-3, 0.08)
            # xi0 cos(alpha) small next to a: the cancelling term 3
            xi0 = rng.uniform(-0.45, 0.45) * L * rng.choice((1.0, 1e-4))
            app = PlateApparatus(a, L, xi0, rng.uniform(0.0, 2.0 * math.pi),
                                 rng.choice((1, 2)))
            field = WeakField(_log_uniform(rng, 1e-6, 1e-2))
            for spec in specs:
                add("delta_energy_quadrature", delta_energy_quadrature, app, field, spec)
            upright = PlateApparatus(app.a, app.L, app.xi0, 0.0, app.polarizations)
            add("delta_energy_quadrature", delta_energy_quadrature, upright, field)
        for xi0 in (1e10, 1e13, 1e20):  # xi0 +- L/2 round
            add("delta_energy_quadrature", delta_energy_quadrature,
                PlateApparatus(1.0, 0.01, xi0, 0.3), WeakField(1e-3))
        # a subnormal transverse integral, then one that is the whole result
        for xi0, alpha in ((0.5, 1e-310), (0.0, 0.5 * math.pi), (0.0, -0.5 * math.pi)):
            add("delta_energy_quadrature", delta_energy_quadrature,
                PlateApparatus(1.0, 0.1, xi0, alpha), WeakField(1e-3))

    symmetric = (
        ("exp(-30 (x^2 + y^2))", lambda x, y: math.exp(-30.0 * (x * x + y * y)), 2),
        ("1 / (1 + 100 x^2)", lambda x: 1.0 / (1.0 + 100.0 * x * x), 1),
        ("1 / (1 + 25 (x^2 + y^2))", lambda x, y: 1.0 / (1.0 + 25.0 * (x * x + y * y)), 2),
        ("exp(-10 (x^2 + y^2 + z^2))", lambda x, y, z: math.exp(-10.0 * (x * x + y * y + z * z)),
         3),
    )
    for name, f, dim in symmetric:
        for spec in specs[::3]:
            records[f"integrate_nd({name}, [-1, 1]^{dim}, {spec!r})"] = attempt(
                integrate_nd, f, [Interval(-1.0, 1.0)] * dim, spec)
    # quadrant panels that tie on error
    tie = QuadratureSpec(1e-6)
    records[f"integrate_nd(1 / (1e-3 + x^2 + y^2), [-1, 1]^2, {tie!r})"] = attempt(
        integrate_nd, lambda x, y: 1.0 / (1e-3 + x * x + y * y), [Interval(-1.0, 1.0)] * 2, tie)
    # below the normal range, where 64 u gross underflows to 0
    records["integrate_nd(1e-310 (x + 0.3), [0, 1])"] = attempt(
        integrate_nd, lambda x: 1e-310 * (x + 0.3), [Interval(0.0, 1.0)])
    records["integrate_nd(3e-320 x^2, [0.1, 1])"] = attempt(
        integrate_nd, lambda x: 3e-320 * x * x, [Interval(0.1, 1.0)])
    records["integrate_nd(1e-310 (x + 2 y + 0.3), [0, 1] x [0, 1/2])"] = attempt(
        integrate_nd, lambda x, y: 1e-310 * (x + 2.0 * y + 0.3),
        [Interval(0.0, 1.0), Interval(0.0, 0.5)])
    records["integrate_nd(1e-310 x y z, [0.1, 1]^3)"] = attempt(
        integrate_nd, lambda x, y, z: 1e-310 * x * y * z, [Interval(0.1, 1.0)] * 3)
    # the benchmark's volume integrand on off-centre boxes, each axis new to the
    # kernel's node cache; k = -g E_C / L, the contraction at z = 1
    volume = random.Random(20261020)
    for _ in range(6):
        a, L = volume.uniform(0.5, 5.0), volume.uniform(0.01, 0.2)
        xi0, alpha = volume.uniform(-2.0, 2.0), volume.uniform(0.0, 2.0 * math.pi)
        k = _log_uniform(volume, 1e-4, 1.0) * volume.choice((1, 2)) * math.pi ** 2 / (
            1440.0 * L ** 4)
        ca, sa = math.cos(alpha), math.sin(alpha)
        box = [Interval(xi0 - 0.5 * L, xi0 + 0.5 * L), *[Interval(-0.5 * a, 0.5 * a)] * 2]
        records[f"integrate_nd({k!r} (xi {ca!r} + eta {sa!r}), "
                f"{[(iv.lo, iv.hi) for iv in box]!r})"] = attempt(
            integrate_nd, lambda xi, eta, chi: k * (xi * ca + eta * sa), box)
    semi_infinite = (
        ("t^2 e^-t", lambda t: t * t * math.exp(-t)),
        ("sin(t) e^-t", lambda t: math.sin(t) * math.exp(-t)),
    )
    for name, f in semi_infinite:
        for spec in specs[::3]:
            records[f"integrate_1d({name}, [0, inf), {spec!r})"] = attempt(
                integrate_1d, f, Interval(0.0), spec)
    # a peak far from unit scale, and oscillation: where a change of rule shows
    hard = (
        ("t^91 e^-t", lambda t: t ** 91 * math.exp(-t) if t < 700.0 else 0.0, (1e-4, 1e-3)),
        ("sin(10 t) e^-t", lambda t: math.sin(10.0 * t) * math.exp(-t), (1e-6, 1e-9)),
    )
    for name, f, tolerances in hard:
        for spec in map(QuadratureSpec, tolerances):
            records[f"integrate_1d({name}, [0, inf), {spec!r})"] = attempt(
                integrate_1d, f, Interval(0.0), spec)
    records["integrate_1d(|x - 1/3|^-1/2, [0, 1])"] = attempt(
        integrate_1d, lambda x: abs(x - 1.0 / 3.0) ** -0.5, Interval(0.0, 1.0))
    return records


def save(out: Path, records: dict) -> None:
    (out / RECORDS).write_text(json.dumps(records, indent=0, sort_keys=True) + "\n",
                               encoding="utf-8")


def api_records(module, names) -> dict[str, str]:
    """The signature of each callable among ``names`` of ``module``, and the
    attributes of each class, one sorted name a line: one record each."""
    records = {}
    for name in names:
        obj = getattr(module, name)
        key = f"{module.__name__}.{name}"
        if callable(obj):
            try:
                records[f"{key} signature"] = str(inspect.signature(obj))
            except ValueError:  # an exception class: its __init__ is built in
                pass
        if isinstance(obj, type):
            records[f"{key} attributes"] = "\n".join(sorted(vars(obj)))
    return records


def public_names() -> dict[str, str]:
    """The public names of the package's top level, ``units`` and ``figures``:
    one record each, one sorted name a line, and the :func:`api_records` of
    the package's, units' and figures' ``__all__``."""
    import casimirgrav

    # read before importing units and figures, which would add them to dir()
    names = {"casimirgrav": [name for name in dir(casimirgrav) if not name.startswith("_")]}
    from casimirgrav import figures, units

    names.update((module.__name__, module.__all__) for module in (units, figures))
    records = {f"{module} public names": "\n".join(sorted(n)) for module, n in names.items()}
    for module in (casimirgrav, units, figures):
        records.update(api_records(module, module.__all__))
    return records


def record(out: Path) -> None:
    """Run the fixed list with the ``casimirgrav`` on ``sys.path``, writing
    ``records.json`` and the figure files into ``out``, the working directory."""
    (out / FILES).mkdir(exist_ok=True)
    records = public_names()
    records.update(("cli " + " ".join(argv), run_cli(argv)) for argv in cli_runs())
    records.update(library_records())
    save(out, records)


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _float(text) -> float | None:
    try:
        return float.fromhex(text) if isinstance(text, str) else float(text)
    except (TypeError, ValueError):
        return None


def text_difference(a: str, b: str) -> str:
    """The first differing line of two texts, with the largest relative
    difference between the numbers on it when both lines hold as many."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
             min(len(lines_a), len(lines_b)))
    line_a = lines_a[i] if i < len(lines_a) else "<end>"
    line_b = lines_b[i] if i < len(lines_b) else "<end>"
    nums_a, nums_b = NUMBER.findall(line_a), NUMBER.findall(line_b)
    if nums_a and len(nums_a) == len(nums_b):
        size = f"relative {max(_relative(float(x), float(y)) for x, y in zip(nums_a, nums_b)):.3g}"
    else:
        size = "relative size not numeric"
    return f"line {i + 1}: {line_a!r} -> {line_b!r} ({size})"


def _compare(name: str, a, b, found: list[str]) -> None:
    """Append one line per differing field of the records ``a`` and ``b``."""
    if a == b:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            _compare(f"{name}/{key}", a.get(key), b.get(key), found)
    elif a is None or b is None:
        found.append(f"{name}: only in {'change' if a is None else 'parent'}")
    elif _float(a) is not None and _float(b) is not None:
        found.append(f"{name}: {a} -> {b} (relative {_relative(_float(a), _float(b)):.3g})")
    else:
        found.append(f"{name}: {text_difference(str(a), str(b))}")


def _load(out: Path) -> dict:
    return json.loads((out / RECORDS).read_text(encoding="utf-8"))


def differences(parent: Path, change: Path) -> list[str]:
    """Every difference between two recording directories, one line each."""
    found: list[str] = []
    records = [_load(parent), _load(change)]
    for key in sorted(records[0].keys() | records[1].keys()):
        _compare(key, records[0].get(key), records[1].get(key), found)
    files = [{p.name: p for p in (d / FILES).iterdir()} for d in (parent, change)]
    for name in sorted(files[0].keys() | files[1].keys()):
        if name not in files[0] or name not in files[1]:
            found.append(f"{FILES}/{name}: only in {'change' if name in files[1] else 'parent'}")
            continue
        a, b = (side[name].read_bytes() for side in files)
        if a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            text = text_difference(a.decode(errors="replace"), b.decode(errors="replace"))
            found.append(f"{FILES}/{name}: first difference at byte {at}, "
                         f"size {len(a)} -> {len(b)}, {text}")
    return found


def run_tree(tree: Path, out: Path) -> None:
    """Record ``tree`` in a fresh interpreter that imports its ``src/casimirgrav``."""
    code = ("import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
            "import same_outputs; same_outputs.record(Path.cwd())")
    subprocess.run([sys.executable, "-c", code, str(tree / "src"), str(TOOLS)],
                   cwd=out, check=True, timeout=600)


def main() -> int:
    parser = argparse.ArgumentParser(description="Check that two trees give the same outputs.")
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, required=True, help="change checkout root")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for side in ("parent", "change"):
            out = Path(tmp) / side
            out.mkdir()
            run_tree(getattr(args, side).resolve(), out)
            outs.append(out)
        found = differences(*outs)
        n_records = len(_load(outs[0]))
        n_files = len(list((outs[0] / FILES).iterdir()))
    for line in found:
        print(line)
    print(f"{n_records} records and {n_files} files compared: "
          f"{len(found) or 'no'} difference{'' if len(found) == 1 else 's'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
