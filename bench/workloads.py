"""The benchmark's three workloads: seeded inputs, the calls into casimirgrav,
50-digit mpmath references and the checks that compare them.

This module imports only the standard library at import time, so the set-up
child can generate its inputs before it starts the clock on
``import casimirgrav``. mpmath is imported when references are built and
casimirgrav when :func:`load_api` runs.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator

# Tolerances of tests/test_acceptance.py, by criterion.
TOL_SHIFT_QUADRATURE = 1e-6  # criterion 8: quadrature of Delta E vs -A g E_C z0
TOL_IMAGE_SUM = 1e-12  # criterion 2: image sum vs its own partial sum
TOL_ABEL_PLANA = 1e-10  # criterion 4; a looser requested quadrature tolerance wins
TOL_ZETA_ABS = 1e-14  # criterion 1: |riemann_zeta(s) - zeta(s)|
TOL_CLOSED_FORM = 1e-14  # criterion 1's bound, for closed forms of up to ~10 roundings
TOL_FIGURE = 1e-13  # criterion 11: figure columns
# The CLI prints 15 significant digits: half a unit in the last is 5e-15 relative.
PRINT_ROUNDING = 5e-15

HBAR = "1.054571817e-34"  # J s, CODATA 2018 (exact)
C_LIGHT = "299792458"  # m / s (exact)


def mp():
    """mpmath at 50 significant digits."""
    import mpmath

    mpmath.mp.dps = 50
    return mpmath


def load_api() -> SimpleNamespace:
    """Import casimirgrav and collect the public names the workloads call.

    The tracer swaps wrapped copies of some of these in; workloads call the
    library only through this namespace.
    """
    import warnings

    from casimirgrav import cavity, cli, figures, numerics, regularization, weakfield
    from casimirgrav.errors import RegimeWarning

    # Advisory warnings fire on most drawn apparatus; they are not failures.
    warnings.simplefilter("ignore", RegimeWarning)
    return SimpleNamespace(
        Interval=numerics.Interval,
        QuadratureSpec=numerics.QuadratureSpec,
        integrate_nd=numerics.integrate_nd,
        CavityConfig=cavity.CavityConfig,
        SpacetimePoint=cavity.SpacetimePoint,
        brown_maclay_tensor=cavity.brown_maclay_tensor,
        PlateApparatus=weakfield.PlateApparatus,
        WeakField=weakfield.WeakField,
        h_isotropic=weakfield.h_isotropic,
        delta_energy_quadrature=weakfield.delta_energy_quadrature,
        delta_energy_closed=weakfield.delta_energy_closed,
        compare_schemes=regularization.compare_schemes,
        riemann_zeta=regularization.riemann_zeta,
        energy_density_image_sum=regularization.energy_density_image_sum,
        abel_plana_regularized_power_sum=regularization.abel_plana_regularized_power_sum,
        FigureSpec=figures.FigureSpec,
        figure_series=figures.figure_series,
        cli_main=cli.main,
    )


@dataclass
class Context:
    """What an op needs besides its inputs: the library and a scratch directory."""

    api: SimpleNamespace | None
    tmp: Path
    env: dict[str, str] = field(default_factory=dict)


@dataclass
class Check:
    ok: bool
    bounded: int = 0  # values that carry an error bound
    missed: int = 0  # of those, values whose |value - reference| exceeds the bound
    detail: str = ""


class _Checker:
    """Collects the comparisons of one op."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.bounded = 0
        self.missed = 0

    def close(self, label: str, value: float, ref, rel: float, absolute: float = 0.0) -> None:
        m = mp()
        err = abs(m.mpf(value) - ref)
        if not err <= max(rel * abs(ref), absolute):
            self.failures.append(f"{label}: {value!r} vs {m.nstr(ref, 17)} (error {m.nstr(err, 3)})")

    def printed(self, label: str, value: float, ref, rel: float, absolute: float = 0.0) -> None:
        """A value the CLI printed to 15 significant digits."""
        self.close(label, value, ref, rel + PRINT_ROUNDING, absolute)

    def bound(self, value: float, bound: float, ref) -> None:
        self.bounded += 1
        if abs(mp().mpf(value) - ref) > bound:
            self.missed += 1

    def equal(self, label: str, got, want) -> None:
        if got != want:
            self.failures.append(f"{label}: {got!r} != {want!r}")

    def result(self) -> Check:
        return Check(not self.failures, self.bounded, self.missed, "; ".join(self.failures))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _apparatus(rng: random.Random) -> dict[str, Any]:
    return {
        "a": rng.uniform(0.5, 5.0),
        "L": rng.uniform(0.01, 0.2),
        "xi0": rng.uniform(-2.0, 2.0),
        "alpha": 2.0 * math.pi * rng.random(),
        "g": _log_uniform(rng, 1e-4, 1.0),
        "pol": rng.choice((1, 2)),
    }


def _e_c(L, pol):
    """Casimir energy per area, pol * (-pi^2 / (1440 L^3)), in mpmath."""
    m = mp()
    return pol * (-(m.pi ** 2) / (1440 * m.mpf(L) ** 3))


def _shift(op):
    """Delta E = -A g E_C z0 with z0 = xi0 cos(alpha), in mpmath."""
    m = mp()
    return (-m.mpf(op["a"]) ** 2 * m.mpf(op["g"]) * _e_c(op["L"], op["pol"])
            * m.mpf(op["xi0"]) * m.cos(m.mpf(op["alpha"])))


# ---------------------------------------------------------------- energy-shift-grid

def shift_ops(seed: int) -> Iterator[dict]:
    """Apparatus draws; every tenth op is the 3-axis cavity-volume form.

    A fixed share of volume ops, rather than a random one, keeps the op mix and
    so the throughput the same from seed to seed.
    """
    rng = random.Random(f"energy-shift-grid:{seed}")
    for i in itertools.count():
        yield {"kind": "volume" if i % 10 == 9 else "quadrature", **_apparatus(rng)}


def volume_shift(app, fld, api):
    """Delta E as the cavity-volume integral (1/2) int h^I_{mu nu} T^{mu nu} d^3x.

    h^I = -g z diag(1, 1, 1, 1) is isotropic, so the contraction is the same in
    apparatus and lab axes, and linear in the lab height
    z = xi cos(alpha) + eta sin(alpha); T^{mu nu} is constant in the cavity.
    The integrand is therefore z times the contraction taken at z = 1.
    """
    t = api.brown_maclay_tensor(api.CavityConfig(app.L, app.polarizations)).components
    h = api.h_isotropic(fld, api.SpacetimePoint(z=1.0))
    k = 0.5 * float((h * t).sum())
    ca, sa = math.cos(app.alpha), math.sin(app.alpha)
    transverse = api.Interval(-0.5 * app.a, 0.5 * app.a)
    normal = api.Interval(app.xi0 - 0.5 * app.L, app.xi0 + 0.5 * app.L)
    return api.integrate_nd(lambda xi, eta, chi: k * (xi * ca + eta * sa),
                            [normal, transverse, transverse])


def run_shift(op: dict, ctx: Context):
    api = ctx.api
    app = api.PlateApparatus(op["a"], op["L"], op["xi0"], op["alpha"], op["pol"])
    fld = api.WeakField(op["g"])
    if op["kind"] == "volume":
        return (volume_shift(app, fld, api),)
    return api.delta_energy_quadrature(app, fld), api.delta_energy_closed(app, fld)


def shift_reference(op: dict) -> dict:
    return {"shift": _shift(op)}


def check_shift(op: dict, out, ref: dict, ctx: Context) -> Check:
    c = _Checker()
    quad = out[0]
    c.close(op["kind"], quad.value, ref["shift"], TOL_SHIFT_QUADRATURE)
    c.bound(quad.value, quad.error_bound, ref["shift"])
    if op["kind"] == "quadrature":
        c.close("closed", out[1], ref["shift"], TOL_CLOSED_FORM)
    return c.result()


# ---------------------------------------------------------------- regulator-scan

SCAN_POOL = 64


def scan_ops(seed: int) -> Iterator[dict]:
    """Regulator inputs.

    n_terms, which sets the op's cost, runs over 64 log-spaced values in
    [1e2, 1e5], each once per block of 64 ops in seeded order, so every run
    has the same cost mix and its tail comes from many ops of the largest
    n_terms. s is drawn from a seeded pool of 64. Together they keep the
    costly references (a Hurwitz zeta per n_terms, zeta(s) per s) to 128.
    """
    rng = random.Random(f"regulator-scan:{seed}")
    n_pool = [round(10.0 ** (2.0 + 3.0 * (k + 0.5) / SCAN_POOL)) for k in range(SCAN_POOL)]
    s_pool = [rng.uniform(2.0, 10.0) for _ in range(SCAN_POOL)]
    while True:
        rng.shuffle(n_pool)
        for n_terms in n_pool:
            yield {
                "L": _log_uniform(rng, 1e-3, 1e3),
                "n_terms": n_terms,
                "tol": _log_uniform(rng, 1e-12, 1e-6),
                "s": rng.choice(s_pool),
            }


def run_scan(op: dict, ctx: Context):
    api = ctx.api
    report = api.compare_schemes(op["L"], op["n_terms"], api.QuadratureSpec(op["tol"]))
    return report, api.riemann_zeta(op["s"])


@lru_cache(maxsize=None)
def _partial_zeta4(n_terms: int):
    """sum_{n=1}^{N} n^-4 = zeta(4) - zeta(4, N+1)."""
    m = mp()
    return m.zeta(4) - m.zeta(4, n_terms + 1)


@lru_cache(maxsize=None)
def _zeta(s: float):
    return mp().zeta(s)


def _image_sum(L, n_terms):
    """Scalar energy per area from the first n_terms images:
    -(sum_{n<=N} n^-4) / (16 pi^2 L^3)."""
    m = mp()
    return -_partial_zeta4(n_terms) / (16 * m.pi ** 2 * m.mpf(L) ** 3)


def _abel_plana(L):
    """-pi^2/(12 L^3) times the Abel-Plana p = 3 value 1/120."""
    m = mp()
    return -(m.pi ** 2) / (12 * m.mpf(L) ** 3) * m.mpf(1) / 120


def scan_reference(op: dict) -> dict:
    return {
        "image-sum": _image_sum(op["L"], op["n_terms"]),
        "abel-plana": _abel_plana(op["L"]),
        "zeta": _e_c(op["L"], 1),
        "limit": _e_c(op["L"], 1),
        "zeta(s)": _zeta(op["s"]),
    }


def check_scan(op: dict, out, ref: dict, ctx: Context) -> Check:
    c = _Checker()
    report, zeta_s = out
    tolerances = {
        "image-sum": TOL_IMAGE_SUM,
        "abel-plana": max(TOL_ABEL_PLANA, op["tol"]),
        "zeta": TOL_CLOSED_FORM,
    }
    values = {kind.value: res for kind, res in report.energy_per_area.items()}
    c.equal("schemes", sorted(values), sorted(tolerances))
    for name, res in values.items():
        c.close(name, res.value, ref[name], tolerances.get(name, 0.0))
        c.bound(res.value, res.error_bound, ref["limit"])
    c.close("zeta(s)", zeta_s, ref["zeta(s)"], 0.0, TOL_ZETA_ABS)
    return c.result()


# ---------------------------------------------------------------- cli-session

# One cycle of the session: 16 quick invocations and the six figure exports.
# The quick ones are most of the session, so the median lies inside them and
# the figure exports form the tail.
QUICK_KINDS = (
    "zeta", "zeta", "pressure", "energy-per-area-si", "energy-density",
    "stress-tensor", "regularize", "regularize", "gravity-closed",
    "gravity-closed", "gravity-quadrature", "gravity-quadrature",
    "error-negative-L", "error-zeta-domain", "error-negative-a", "error-io",
)
FIGURE_OUT = "{tmp}/figure.{fmt}"
FIGURE_COLUMNS = {
    1: ["L", "energy_density"],
    2: ["L", "pressure"],
    3: ["L", "energy_per_area"],
    4: ["L", "delta_force[A=1]", "delta_force[A=2]", "delta_force[A=4]"],
    5: ["A", "delta_force[L=0.5]", "delta_force[L=1]", "delta_force[L=2]"],
    6: ["L", "delta_force_per_area", "fermi_force_per_area"],
}


def _gravity_argv(p: dict, method: str) -> list[str]:
    return ["gravity", "--L", repr(p["L"]), "--a", repr(p["a"]), "--xi0", repr(p["xi0"]),
            "--alpha", repr(p["alpha"]), "--g", repr(p["g"]),
            "--polarizations", str(p["pol"]), "--method", method]


def _quick_op(kind: str, rng: random.Random) -> dict:
    op: dict[str, Any] = {"kind": kind, "L": _log_uniform(rng, 0.1, 10.0),
                          "pol": rng.choice((1, 2)), "exit": 0}
    if kind == "zeta":
        op["s"] = rng.uniform(2.0, 10.0)
        op["argv"] = ["zeta", "--s", repr(op["s"])]
    elif kind in ("pressure", "energy-density", "stress-tensor"):
        op["argv"] = ["compute", kind, "--L", repr(op["L"]), "--polarizations", str(op["pol"])]
    elif kind == "energy-per-area-si":
        op["L"] = _log_uniform(rng, 1e-7, 1e-5)  # meters
        op["argv"] = ["compute", "energy-per-area", "--L", repr(op["L"]), "--units", "si",
                      "--polarizations", str(op["pol"])]
    elif kind == "regularize":
        op["L"] = _log_uniform(rng, 1e-2, 1e2)
        op["argv"] = ["regularize", "--L", repr(op["L"])]
    elif kind.startswith("gravity"):
        op.update(_apparatus(rng))
        op["argv"] = _gravity_argv(op, kind.split("-")[1])
    elif kind == "error-negative-L":
        op.update(exit=2, argv=["compute", "pressure", "--L", repr(-op["L"])])
    elif kind == "error-zeta-domain":
        op.update(exit=2, argv=["zeta", "--s", repr(rng.uniform(0.0, 1.0))])
    elif kind == "error-negative-a":
        p = _apparatus(rng)
        p["a"] = -p["a"]
        op.update(exit=2, argv=_gravity_argv(p, "closed"))
    else:  # error-io: the output directory does not exist
        op.update(exit=4, argv=["figure", "--id", str(rng.randint(1, 6)),
                                "--out", "{tmp}/missing/figure.csv"])
    return op


def cli_ops(seed: int) -> Iterator[dict]:
    """A session made of shuffled cycles.

    In cycle c, figure k exports --points from the sixth (k + c) mod 6 of
    [2000, 20000] and its format alternates every other cycle. The seed moves
    the points within their sixth and the order of the ops, so the mix of
    export sizes, and with it the tail and the largest child, is the same in
    every run.
    """
    rng = random.Random(f"cli-session:{seed}")
    for cycle in itertools.count():
        ops = [_quick_op(kind, rng) for kind in QUICK_KINDS]
        for fig_id in range(1, 7):
            fmt = "csv" if (fig_id + cycle // 2) % 2 else "json"
            points = 2000 + round(3000 * ((fig_id + cycle) % 6 + rng.random()))
            ops.append({"kind": "figure", "id": fig_id, "format": fmt, "points": points,
                        "exit": 0, "argv": ["figure", "--id", str(fig_id), "--format", fmt,
                                            "--points", str(points),
                                            "--out", FIGURE_OUT.format(tmp="{tmp}", fmt=fmt)]})
        rng.shuffle(ops)
        yield from ops


def _argv(op: dict, ctx: Context) -> list[str]:
    return [a.format(tmp=ctx.tmp) for a in op["argv"]]


def run_cli(op: dict, ctx: Context):
    """One ``python -m casimirgrav`` process; returns (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "casimirgrav", *_argv(op, ctx)],
                          capture_output=True, text=True, env=ctx.env, cwd=ctx.tmp,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def replay_cli(op: dict, ctx: Context):
    """The same invocation in-process, through ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ctx.api.cli_main(_argv(op, ctx))
    return code, out.getvalue(), err.getvalue()


def _figure_rows(fig_id: int, points: int) -> dict[int, list]:
    """Closed-form figure rows at up to 101 evenly spaced indices of the sweep.

    Defaults of FigureSpec: sweep [0.5, 5], g = 1, two polarizations,
    A-list {1, 2, 4}, L-list {0.5, 1, 2}.
    """
    m = mp()
    rows = {}
    for i in sorted({round(k * (points - 1) / 100) for k in range(101)}):
        x = m.mpf("0.5") + m.mpf("4.5") * i / (points - 1)
        if fig_id == 1:
            rows[i] = [x, -(m.pi ** 2) / (1440 * x ** 4)]
        elif fig_id == 2:
            rows[i] = [x, 3 * _e_c(x, 2) / x]
        elif fig_id == 3:
            rows[i] = [x, _e_c(x, 2)]
        elif fig_id == 4:
            rows[i] = [x] + [area * _e_c(x, 2) for area in (1, 2, 4)]
        elif fig_id == 5:
            rows[i] = [x] + [x * _e_c(m.mpf(L), 2) for L in ("0.5", "1", "2")]
        else:
            rows[i] = [x, _e_c(x, 2), -_e_c(x, 2)]
    return rows


def cli_reference(op: dict) -> dict:
    m = mp()
    kind = op["kind"]
    ref: dict[str, Any] = {"exit": op["exit"]}
    if op["exit"] or kind == "figure":
        if kind == "figure":
            ref["rows"] = _figure_rows(op["id"], op["points"])
        return ref
    L = m.mpf(op["L"])
    e_c = _e_c(op["L"], op["pol"])
    if kind == "zeta":
        ref["zeta"] = _zeta(op["s"])
    elif kind == "pressure":
        ref["pressure"] = 3 * e_c / L
    elif kind == "energy-density":
        ref["energy density (one polarization)"] = _e_c(op["L"], 1) / L
    elif kind == "energy-per-area-si":
        ref["energy per area"] = e_c * m.mpf(HBAR) * m.mpf(C_LIGHT)
    elif kind == "stress-tensor":
        ref["diagonal"] = [e_c / L, -e_c / L, -e_c / L, 3 * e_c / L]
    elif kind == "regularize":
        ref.update({"image-sum": _image_sum(op["L"], 10_000), "abel-plana": _abel_plana(L),
                    "zeta": _e_c(L, 1)})
    else:  # gravity
        g = m.mpf(op["g"])
        ref.update({"Delta E_g": _shift(op), "Delta F / A": g * e_c,
                    "F_iso / A": -2 * g * e_c, "F_fermi / A": -g * e_c,
                    "fractional correction (Delta F / F_flat)": g * L / 3})
    return ref


def _printed_value(stdout: str, label: str) -> float:
    """The number after '=' on the first line that starts with ``label``."""
    for line in stdout.splitlines():
        if line.strip().startswith(label):
            return float(line.split("=", 1)[1].split()[0])
    raise ValueError(f"no line starting with {label!r}")


def _read_figure(path: Path, fmt: str) -> tuple[list[str], list[list[float]]]:
    if fmt == "json":
        records = json.loads(path.read_text(encoding="utf-8"))
        columns = list(records[0]) if records else []
        return columns, [[r[c] for c in columns] for r in records]
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def check_cli(op: dict, out, ref: dict, ctx: Context) -> Check:
    c = _Checker()
    code, stdout, stderr = out
    c.equal("exit code", code, ref["exit"])
    kind = op["kind"]
    if ref["exit"] or code != 0:
        if ref["exit"]:
            prefix = "i/o failure:" if ref["exit"] == 4 else "error:"
            c.equal("stderr", stderr.startswith(prefix), True)
        return c.result()
    try:
        if kind == "figure":
            _check_figure(c, op, stdout, ref, ctx)
        elif kind == "stress-tensor":
            rows = [[float(v) for v in ln.split()] for ln in stdout.splitlines()[1:5]]
            for mu in range(4):
                for nu in range(4):
                    if mu == nu:
                        c.printed(f"T[{mu}{nu}]", rows[mu][nu], ref["diagonal"][mu],
                                  TOL_CLOSED_FORM)
                    else:
                        c.equal(f"T[{mu}{nu}]", rows[mu][nu], 0.0)
            c.close("trace", _printed_value(stdout, "trace"), 0, 0.0,
                    TOL_CLOSED_FORM * abs(ref["diagonal"][0]))
        elif kind == "regularize":
            for name in ("image-sum", "abel-plana", "zeta"):
                value = _printed_value(stdout, f"{name} ")
                bound = float(next(ln for ln in stdout.splitlines()
                                   if ln.strip().startswith(name)).rsplit("=", 1)[1])
                tol = {"image-sum": TOL_IMAGE_SUM, "abel-plana": 1e-9,  # default tolerance
                       "zeta": TOL_CLOSED_FORM}[name]
                c.printed(name, value, ref[name], tol)
                c.bound(value, bound, ref["zeta"])
        elif kind == "zeta":
            c.printed("zeta", _printed_value(stdout, "zeta("), ref["zeta"], 0.0, TOL_ZETA_ABS)
        else:
            for label, want in ref.items():
                if label == "exit":
                    continue
                tol = (TOL_SHIFT_QUADRATURE if kind == "gravity-quadrature"
                       and label == "Delta E_g" else TOL_CLOSED_FORM)
                c.printed(label, _printed_value(stdout, label), want, tol)
    except (ValueError, IndexError, KeyError, StopIteration) as exc:
        c.failures.append(f"unreadable output: {exc!r}")
    return c.result()


def _check_figure(c: _Checker, op: dict, stdout: str, ref: dict, ctx: Context) -> None:
    path = Path(FIGURE_OUT.format(tmp=ctx.tmp, fmt=op["format"]))
    columns, rows = _read_figure(path, op["format"])
    c.equal("columns", columns, FIGURE_COLUMNS[op["id"]])
    c.equal("rows", len(rows), op["points"])
    c.equal("stdout", stdout.startswith(f"figure {op['id']}: wrote {op['points']} rows"), True)
    if len(rows) != op["points"]:
        return
    for i, want in ref["rows"].items():
        for j, (got, w) in enumerate(zip(rows[i], want)):
            c.close(f"row {i} column {j}", got, w, TOL_FIGURE)


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int], Iterator[dict]]
    run: Callable  # (op, ctx) -> output, in the timed loop
    replay: Callable  # (op, ctx) -> output, in the traced run's passes
    reference: Callable[[dict], dict]
    check: Callable  # (op, output, reference, ctx) -> Check
    trace_ops: int  # ops in one traced pass: a fixed count, so counts repeat exactly
    in_child: bool  # the timed loop runs each op in a child process


WORKLOADS = {
    "energy-shift-grid": Workload(
        "energy-shift-grid", shift_ops, run_shift, run_shift, shift_reference, check_shift,
        trace_ops=40, in_child=False),
    "regulator-scan": Workload(
        "regulator-scan", scan_ops, run_scan, run_scan, scan_reference, check_scan,
        trace_ops=200, in_child=False),
    "cli-session": Workload(
        "cli-session", cli_ops, run_cli, replay_cli, cli_reference, check_cli,
        trace_ops=len(QUICK_KINDS) + 6, in_child=True),
}


# ---------------------------------------------------------------- baseline probe

def baseline_rows(api, ctx: Context) -> list[tuple[str, Callable[[], Any]]]:
    """The rows of the ROADMAP baseline table, plus one in-process run of each
    CLI subcommand, run at the end of every traced pass."""
    app = api.PlateApparatus(1.0, 0.1, 0.5, 0.3, 2)
    fld = api.WeakField(1e-3)
    cube = [api.Interval(0.0, 1.0)] * 3
    rows = [
        ("riemann_zeta_4", lambda: api.riemann_zeta(4.0)),
        ("image_sum_10k", lambda: api.energy_density_image_sum(1.0, 10_000)),
        ("abel_plana_p3", lambda: api.abel_plana_regularized_power_sum(3)),
        ("compare_schemes_L1", lambda: api.compare_schemes(1.0)),
        ("delta_energy_quadrature", lambda: api.delta_energy_quadrature(app, fld)),
        ("integrate_nd_3ax", lambda: api.integrate_nd(lambda x, y, z: x * y * z + 1.0, cube)),
    ]
    rows += [(f"figure_{k}", lambda k=k: api.figure_series(api.FigureSpec(k)))
             for k in range(1, 7)]
    commands = {
        "cli_zeta": ["zeta", "--s", "4"],
        "cli_compute": ["compute", "pressure", "--L", "1"],
        "cli_regularize": ["regularize", "--L", "1"],
        "cli_gravity": ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5",
                        "--method", "quadrature"],
        "cli_figure_csv": ["figure", "--id", "2", "--out", str(ctx.tmp / "probe.csv")],
        "cli_figure_json": ["figure", "--id", "2", "--format", "json",
                            "--out", str(ctx.tmp / "probe.json")],
    }
    for row, argv in commands.items():
        rows.append((row, lambda argv=argv: _quiet_main(api, argv)))
    return rows


def _quiet_main(api, argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = api.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"casimirgrav {' '.join(argv)} exited {code}")
    return code
