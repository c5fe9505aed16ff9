"""Time each layer of casimirgrav on two trees, side by side.

    git archive <parent> | tar -x -C ../parent
    python3 tools/layer_timing.py --parent ../parent --change .

Each tree's ``src/casimirgrav`` is copied into a temporary directory, so the
trees get no ``__pycache__`` from this tool. In ``PASSES`` passes over all
rows, fresh interpreters of the two trees alternate on each row, the first
side switching from one interpreter to the next. An interpreter builds the
row's inputs, runs one round unmeasured to warm up, counts the Python-level
calls of a second unmeasured round, then times ``ROUNDS`` rounds of the
row's calls with ``time.process_time``, the interpreter's own CPU; each
round gets new inputs. The two import rows time one ``import
casimirgrav.cli`` per interpreter instead. Per side the tool prints the
minimum and the median CPU per call over all rounds, the integrand
evaluations per call (``terms_used``, summed over a call's results; "-" for
a row with none), the calls of the counted round and the ratio of the
change's minimum to the parent's.

The calls are the "call" and "c_call" events that ``sys.setprofile`` sees:
every Python function entered (a generator each time it resumes) and every
builtin function or method called from Python code (calling a type such as
``map`` is none). They repeat exactly from one interpreter to
the next, so a change in them is a change of Python-level work; a row whose
count differs between a side's interpreters prints its range. Work inside a
C loop does not show: the 10^4 ``math.pow`` calls that ``math.fsum`` draws
through ``map`` in the image sum are no events at all. So a row that gets
faster with the same evaluations and calls spends less time per step, not
fewer steps.

The rows, with the inputs each call gets:

- the energy-shift-grid quadrature op: apparatus, field and both energy
  shifts, each call on a new seeded apparatus, as in the benchmark;
- the energy-shift-grid volume op: the 3-axis integral of
  k (xi cos(alpha) + eta sin(alpha)) over [xi0 -+ L/2] x [-a/2, a/2]^2,
  each call on a new seeded apparatus, so no axis repeats;
- both energy shifts alone, on one apparatus;
- the numerics kernels: ``integrate_1d`` on a finite interval that splits
  and on [0, inf), ``integrate_nd`` on the unit square and cube,
  ``tail_bounded_power_sum`` at N = 10^4 and ``riemann_zeta(5.0)``;
- the Abel-Plana p = 3 branch-cut integral t^3 / (e^{2 pi t} - 1) on
  [0, inf) through ``integrate_1d``, the cold quadrature behind the
  Abel-Plana rows;
- the three regulators and ``compare_schemes(1.0)``. The library keeps each
  Abel-Plana exponent's refinement after its first call, so the
  ``abel_plana_regularized_power_sum(3)`` and ``compare_schemes(1.0)`` rows
  time a warm memo: the unmeasured first round fills it;
- ``figure_series`` for figures 1-6 at 2 000 points;
- value construction: the six value objects of a quadrature op;
- cold ``import casimirgrav.cli`` with and without bytecode caches; the
  standard library keeps its own caches in both.

A full run takes about 50 s on a shared 2-core VM (Python 3.11). There, one
tree on both sides read ratios of 0.92-1.08, and two runs a minute apart read
minima up to 19 % apart, as the whole host sped up or slowed down: compare a
row's ratio, not its minimum across runs, and read a ratio within about 8 %
of 1 as noise. The evaluations are the library's own count, so a change of
work shows there exactly. The tool only reports: the benchmark under
``bench/`` stays the judge of a speed claim.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PASSES = 3  # over every row
ROUNDS = 6  # measured rounds per interpreter
INTERPRETERS = 2  # per side, row and pass
IMPORT_INTERPRETERS = 7  # per side and pass, for each import row: one sample each
FIGURE_POINTS = 2000


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _apparatus(rng: random.Random) -> tuple:
    """``(a, L, xi0, alpha, polarizations, g)``, drawn as the benchmark's
    energy-shift-grid draws them."""
    return (rng.uniform(0.5, 5.0), rng.uniform(0.01, 0.2), rng.uniform(-2.0, 2.0),
            2.0 * math.pi * rng.random(), rng.choice((1, 2)), _log_uniform(rng, 1e-4, 1.0))


def _quadrature_op(cg, rng):
    a, L, xi0, alpha, pol, g = _apparatus(rng)

    def call():
        app = cg.PlateApparatus(a, L, xi0, alpha, pol)
        field = cg.WeakField(g)
        cg.delta_energy_closed(app, field)
        return cg.delta_energy_quadrature(app, field)

    return call


def _volume_op(cg, rng):
    a, L, xi0, alpha, pol, g = _apparatus(rng)
    # the contraction at z = 1 is -g E_C / L; any constant of that size will do
    k = -g * rng.uniform(0.5, 2.0) / L
    ca, sa = math.cos(alpha), math.sin(alpha)
    box = [cg.Interval(xi0 - 0.5 * L, xi0 + 0.5 * L), *[cg.Interval(-0.5 * a, 0.5 * a)] * 2]
    return lambda: cg.integrate_nd(lambda xi, eta, chi: k * (xi * ca + eta * sa), box)


def _branch_cut_3(cg):
    two_pi, expm1 = 2.0 * math.pi, math.expm1

    def branch_cut(t):
        w = two_pi * t
        return 0.0 if w > 700.0 else t ** 3 / expm1(w)

    iv = cg.Interval(0.0)
    return lambda: cg.integrate_1d(branch_cut, iv)


def _fixed(make):
    """A row whose calls all take the same inputs: ``make(cg)`` gives the call."""
    return lambda cg, rng: make(cg)


def _shift(name):
    """A row of the energy shift ``name`` on one apparatus."""
    def make(cg):
        app, field = cg.PlateApparatus(1.0, 0.1, 0.5, 0.3, 2), cg.WeakField(1e-3)
        shift = getattr(cg, name)
        return lambda: shift(app, field)

    return _fixed(make)


def _values(cg):
    def call():
        app = cg.PlateApparatus(1.0, 0.1, 0.5, 0.3, 2)
        cg.WeakField(1e-3)
        app.cavity()
        cg.Interval(-0.5, 0.5)
        cg.QuadratureSpec(1e-9)
        cg.SeriesResult(1.0, 1e-16, 48)

    return call


def _figure(k):
    def make(cg):
        from casimirgrav.figures import FigureSpec, figure_series

        spec = FigureSpec(k, points=FIGURE_POINTS)
        return lambda: figure_series(spec)

    return _fixed(make)


# row name -> (calls per round, maker): maker(casimirgrav, rng) gives one call
ROWS = {
    "energy-shift-grid quadrature op": (300, _quadrature_op),
    "energy-shift-grid volume op": (4, _volume_op),
    "delta_energy_quadrature": (300, _shift("delta_energy_quadrature")),
    "delta_energy_closed": (3000, _shift("delta_energy_closed")),
    "integrate_1d 1 / (1 + 100 x^2) on [-1, 1]": (20, _fixed(lambda cg: lambda: cg.integrate_1d(
        lambda x: 1.0 / (1.0 + 100.0 * x * x), cg.Interval(-1.0, 1.0)))),
    "integrate_1d t^2 e^-t on [0, inf)": (20, _fixed(lambda cg: lambda: cg.integrate_1d(
        lambda t: t * t * math.exp(-t), cg.Interval(0.0)))),
    "integrate_1d t^3 / (e^(2 pi t) - 1) on [0, inf)": (200, _fixed(_branch_cut_3)),
    "integrate_nd x y + 1 on [0, 1]^2": (40, _fixed(lambda cg: lambda: cg.integrate_nd(
        lambda x, y: x * y + 1.0, [cg.Interval(0.0, 1.0)] * 2))),
    "integrate_nd x y z + 1 on [0, 1]^3": (4, _fixed(lambda cg: lambda: cg.integrate_nd(
        lambda x, y, z: x * y * z + 1.0, [cg.Interval(0.0, 1.0)] * 3))),
    "tail_bounded_power_sum(4, 1, 10^4)": (30, _fixed(
        lambda cg: lambda: cg.tail_bounded_power_sum(4.0, 1.0, 10_000))),
    "riemann_zeta(5.0)": (3000, _fixed(lambda cg: lambda: cg.riemann_zeta(5.0))),
    "energy_density_image_sum(1, 10^4)": (30, _fixed(
        lambda cg: lambda: cg.energy_density_image_sum(1.0, 10_000))),
    "abel_plana_regularized_power_sum(3)": (200, _fixed(
        lambda cg: lambda: cg.abel_plana_regularized_power_sum(3))),
    "compare_schemes(1.0)": (20, _fixed(lambda cg: lambda: cg.compare_schemes(1.0))),
    **{f"figure_series({k}) at {FIGURE_POINTS} points": (10, _figure(k)) for k in range(1, 7)},
    "value construction (6 objects)": (3000, _fixed(_values)),
}
IMPORT_ROWS = ("cold import casimirgrav.cli, bytecode caches", "cold import casimirgrav.cli, "
               "no bytecode caches")


def _evals(result) -> int | None:
    """``terms_used`` of a result, summed over a comparison's results."""
    if hasattr(result, "terms_used"):
        return result.terms_used
    if hasattr(result, "energy_per_area"):
        return sum(r.terms_used for r in result.energy_per_area.values())
    return None


def _python_calls(calls) -> int:
    """The "call" and "c_call" profile events of running each of ``calls``."""
    events = 0

    def profile(frame, event, arg):
        nonlocal events
        if event == "call" or event == "c_call":
            events += 1

    sys.setprofile(profile)
    try:
        for call in calls:
            call()
    finally:
        sys.setprofile(None)
    return events


def child(row: str) -> None:
    """Time ``row`` in this interpreter and print ``{"us": [...], "evals": n,
    "calls": m}``: the CPU per call of each measured round, in microseconds,
    the evaluations per call and the Python-level calls of one round."""
    import time
    import warnings

    import casimirgrav as cg

    warnings.simplefilter("ignore")  # RegimeWarning on wide or strong draws
    n, make = ROWS[row]
    rng = random.Random(f"layer-timing:{row}")
    us = []
    evals = python_calls = None
    for round_ in range(ROUNDS + 2):
        calls = [make(cg, rng) for _ in range(n)]
        if round_ == 1:  # after the warm-up, before the measured rounds
            python_calls = _python_calls(calls)
            continue
        start = time.process_time()
        for call in calls:
            result = call()
        cpu = time.process_time() - start
        if round_:
            us.append(cpu / n * 1e6)
        else:
            evals = _evals(result)
    print(json.dumps({"us": us, "evals": evals, "calls": python_calls}))


# an import row's child: nothing of the package or this tool is loaded before the clock starts
IMPORT_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
                "import casimirgrav.cli; print((time.process_time() - t) * 1e6)")


def _copy_package(tree: Path, into: Path) -> Path:
    """A copy of ``tree``'s ``src/casimirgrav`` sources under ``into``; returns ``into``."""
    shutil.copytree(tree / "src" / "casimirgrav", into / "casimirgrav",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return into


def prepare(tree: Path, tmp: Path) -> dict[str, Path]:
    """Two copies of ``tree``'s package: ``cached``, with its bytecode compiled,
    and ``bare``, with none."""
    cached = _copy_package(tree, tmp / "cached")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(cached)], check=True,
                   timeout=120)
    return {"cached": cached, "bare": _copy_package(tree, tmp / "bare")}


def _run(argv: list[str]) -> str:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    return subprocess.run([sys.executable, *argv], env=env, check=True, capture_output=True,
                          text=True, timeout=300).stdout


def sample(row: str, copies: dict[str, Path]) -> tuple[list[float], int | None, int | None]:
    """One interpreter's timings of ``row`` (microseconds per call), its
    evaluations per call and its calls per round."""
    if row in IMPORT_ROWS:
        package = copies["cached" if row == IMPORT_ROWS[0] else "bare"]
        return [float(_run(["-c", IMPORT_CHILD, str(package)]))], None, None
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import layer_timing; "
            "layer_timing.child(sys.argv[3])")
    out = json.loads(_run(["-c", code, str(copies["cached"]), str(TOOLS), row]))
    return out["us"], out["evals"], out["calls"]


def compare(rows, sides: dict[str, dict[str, Path]], passes: int = PASSES) -> list[dict]:
    """Per row, ``{"row", "evals": {side: n}, "calls": {side: [...]},
    "us": {side: [...]}}``, with one entry of ``calls`` per interpreter.

    Each pass runs every row in turn, so a slow spell of the host, which
    slows both sides alike, falls on a few samples of each row rather than
    on every sample of one."""
    results = {row: {"row": row, "evals": {}, "calls": {side: [] for side in sides},
                     "us": {side: [] for side in sides}} for row in rows}
    order = list(sides)
    for _ in range(passes):
        for row, r in results.items():
            for k in range(IMPORT_INTERPRETERS if row in IMPORT_ROWS else INTERPRETERS):
                for side in order[k % 2:] + order[:k % 2]:
                    times, r["evals"][side], calls = sample(row, sides[side])
                    r["us"][side] += times
                    r["calls"][side].append(calls)
    return list(results.values())


def _time(us: float) -> str:
    return f"{us / 1000:.3f} ms" if us >= 1000 else f"{us:.2f} us"


def _count(counts: list[int | None]) -> str:
    """A side's count: "-" for none, the count, or its range over the interpreters."""
    if None in counts:
        return "-"
    lo, hi = min(counts), max(counts)
    return str(lo) if lo == hi else f"{lo}-{hi}"


def report(results: list[dict]) -> list[str]:
    """One line per row: min / median per side, evaluations, calls and the
    ratio of minima."""
    lines = []
    for r in results:
        parent, change = r["us"]["parent"], r["us"]["change"]
        evals = " / ".join("-" if r["evals"][s] is None else str(r["evals"][s])
                           for s in ("parent", "change"))
        calls = " / ".join(_count(r["calls"][s]) for s in ("parent", "change"))
        lines.append(f"{r['row']}: parent {_time(min(parent))} / {_time(statistics.median(parent))}"
                     f", change {_time(min(change))} / {_time(statistics.median(change))}"
                     f", evals {evals}, calls {calls}, ratio {min(change) / min(parent):.3f}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Time each layer on two trees, side by side.")
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, required=True, help="change checkout root")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: prepare(getattr(args, side).resolve(), Path(tmp) / side)
                 for side in ("parent", "change")}
        results = compare([*ROWS, *IMPORT_ROWS], sides)
    print("row: side min / median CPU per call, evaluations per call parent / change, "
          "Python-level calls per round parent / change, ratio of minima change / parent")
    print(*report(results), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
