"""Spans at casimirgrav's module boundaries, recorded from the benchmark's side.

A wrapper replaces a public function in the namespace of the layer that
imports it (``weakfield.integrate_nd``, ``cli.write_csv``, ...), so one span
covers one call across a module boundary and never the recursion inside
``numerics``. The library itself is not changed: the wrappers are installed
for a traced pass and removed after it.

Spans are kept in memory and written out when the run ends. Calls into
``cavity`` happen once per figure point, so they are timed and counted in
aggregate instead of kept one by one.
"""

from __future__ import annotations

import importlib
import os
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): where a layer imports a function from the
# layer below it.
PATCHES = [
    ("weakfield", "integrate_nd", "numerics.integrate_nd"),
    ("regularization", "integrate_1d", "numerics.integrate_1d"),
    ("regularization", "tail_bounded_power_sum", "numerics.tail_bounded_power_sum"),
    ("weakfield", "CavityConfig", "cavity.CavityConfig"),
    ("weakfield", "energy_per_area", "cavity.energy_per_area"),
    ("weakfield", "pressure", "cavity.pressure"),
    ("figures", "CavityConfig", "cavity.CavityConfig"),
    ("figures", "energy_density", "cavity.energy_density"),
    ("figures", "energy_per_area", "cavity.energy_per_area"),
    ("figures", "pressure", "cavity.pressure"),
    ("cli", "CavityConfig", "cavity.CavityConfig"),
    ("cli", "brown_maclay_tensor", "cavity.brown_maclay_tensor"),
    ("cli", "energy_density", "cavity.energy_density"),
    ("cli", "energy_per_area", "cavity.energy_per_area"),
    ("cli", "pressure", "cavity.pressure"),
    ("cli", "compare_schemes", "regularization.compare_schemes"),
    ("cli", "riemann_zeta", "regularization.riemann_zeta"),
    ("cli", "delta_energy_closed", "weakfield.delta_energy_closed"),
    ("cli", "delta_energy_quadrature", "weakfield.delta_energy_quadrature"),
    ("cli", "figure_series", "figures.figure_series"),
    ("cli", "write_csv", "figures.write_csv"),
    ("cli", "write_json", "figures.write_json"),
]

# The benchmark's own calls into the library (attributes of workloads.load_api()).
API_SPANS = {
    "integrate_nd": "numerics.integrate_nd",
    "CavityConfig": "cavity.CavityConfig",
    "brown_maclay_tensor": "cavity.brown_maclay_tensor",
    "delta_energy_quadrature": "weakfield.delta_energy_quadrature",
    "delta_energy_closed": "weakfield.delta_energy_closed",
    "compare_schemes": "regularization.compare_schemes",
    "riemann_zeta": "regularization.riemann_zeta",
    "figure_series": "figures.figure_series",
    "cli_main": "cli.main",
}

CLI_SUBCOMMANDS = ("compute", "gravity", "figure", "regularize", "zeta")
BASELINE_EVALS = ("image_sum_10k", "abel_plana_p3", "compare_schemes_L1",
                  "delta_energy_quadrature", "integrate_nd_3ax")


class Tracer:
    """In-memory spans with self time, plus counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self seconds)
        self.stats: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, seconds covered by children]
        self._next_id = 0

    def reset(self) -> None:
        """Start a new pass; wrappers made earlier keep recording into this tracer."""
        self.spans.clear()
        self.stats.clear()
        self.counts.clear()
        self._stack.clear()

    def _open(self) -> float:
        self._next_id += 1
        self._stack.append([self._next_id, 0.0])
        return perf_counter()

    def _close(self, name: str, start: float, keep: bool) -> None:
        end = perf_counter()
        span_id, children = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += duration
        st[2] += duration - children
        if keep:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, parent, name, start, end, duration - children))

    @contextmanager
    def span(self, name: str):
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start, True)

    def wrap(self, name: str, fn):
        """``fn`` with a span named after the layer and function it belongs to."""
        keep = not name.startswith("cavity.")
        counts = self.counts

        def after(args, result) -> str:
            if name == "numerics.integrate_nd":
                counts["numerics.evals"] += result.terms_used
                return f"{name}.{len(args[1])}ax"
            if name == "numerics.integrate_1d":
                counts["numerics.evals"] += result.terms_used
                counts["numerics.integrate_1d.evals"] += result.terms_used
            elif name == "numerics.tail_bounded_power_sum":
                counts["numerics.tail_bounded_power_sum.terms"] += result.terms_used
            elif name == "figures.figure_series":
                counts["figures.rows"] += result.rows.shape[0]
            elif name.startswith("figures.write_"):
                counts["figures.bytes_written"] += os.path.getsize(args[1])
            elif name == "cli.main":
                return f"cli.main.{args[0][0]}"
            return name

        def wrapper(*args, **kwargs):
            start = self._open()
            label = name
            try:
                result = fn(*args, **kwargs)
                label = after(args, result)
                return result
            except Exception as exc:
                if name.startswith("numerics.") and type(exc).__name__ in (
                        "ConvergenceError", "DomainError"):
                    counts["numerics.failures"] += 1
                if name == "numerics.integrate_nd":
                    label = f"{name}.{len(args[1])}ax"
                raise
            finally:
                self._close(label, start, keep)

        return wrapper


def traced_api(api, tracer: Tracer):
    """A copy of the workloads' API namespace whose boundary calls are wrapped."""
    wrapped = dict(vars(api))
    for attr, name in API_SPANS.items():
        wrapped[attr] = tracer.wrap(name, wrapped[attr])
    return type(api)(**wrapped)


@contextmanager
def installed(tracer: Tracer):
    """Patch every entry of PATCHES for the duration of a traced pass."""
    saved = []
    try:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(f"casimirgrav.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def pass_metrics(tracer: Tracer, baseline_evals: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    stats, counts = tracer.stats, tracer.counts

    def ms(name: str, column: int = 1) -> float:
        return 1e3 * stats.get(name, (0, 0.0, 0.0))[column]

    def calls(name: str) -> int:
        return int(stats.get(name, (0, 0.0, 0.0))[0])

    cavity = [n for n in stats if n.startswith("cavity.")]
    quad_ms = (ms("numerics.integrate_nd.1ax") + ms("numerics.integrate_nd.2ax")
               + ms("numerics.integrate_nd.3ax") + ms("numerics.integrate_1d"))
    m = {
        "numerics.integrate_nd.2ax.ms": (ms("numerics.integrate_nd.2ax"), "ms"),
        "numerics.integrate_nd.2ax.calls": (calls("numerics.integrate_nd.2ax"), "count"),
        "numerics.integrate_nd.3ax.ms": (ms("numerics.integrate_nd.3ax"), "ms"),
        "numerics.integrate_nd.3ax.calls": (calls("numerics.integrate_nd.3ax"), "count"),
        "numerics.integrate_1d.ms": (ms("numerics.integrate_1d"), "ms"),
        "numerics.integrate_1d.evals": (counts["numerics.integrate_1d.evals"], "count"),
        "numerics.evals": (counts["numerics.evals"], "count"),
        "numerics.evals_per_s": (counts["numerics.evals"] / (quad_ms / 1e3) if quad_ms else 0.0,
                                 "1/s"),
        "numerics.tail_bounded_power_sum.ms": (ms("numerics.tail_bounded_power_sum"), "ms"),
        "numerics.tail_bounded_power_sum.terms": (
            counts["numerics.tail_bounded_power_sum.terms"], "count"),
        "numerics.failures": (counts["numerics.failures"], "count"),
        "regularization.compare_schemes.self_ms": (
            ms("regularization.compare_schemes", 2), "ms"),
        "regularization.riemann_zeta.ms": (ms("regularization.riemann_zeta"), "ms"),
        "weakfield.delta_energy_quadrature.self_ms": (
            ms("weakfield.delta_energy_quadrature", 2), "ms"),
        "weakfield.delta_energy_closed.ms": (ms("weakfield.delta_energy_closed"), "ms"),
        "cavity.calls": (sum(calls(n) for n in cavity), "count"),
        "cavity.ms": (sum(ms(n) for n in cavity), "ms"),
        "figures.figure_series.ms": (ms("figures.figure_series"), "ms"),
        "figures.rows": (counts["figures.rows"], "count"),
        "figures.write_csv.ms": (ms("figures.write_csv"), "ms"),
        "figures.write_json.ms": (ms("figures.write_json"), "ms"),
        "figures.bytes_written": (counts["figures.bytes_written"], "bytes"),
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main_ms.{sub}"] = (ms(f"cli.main.{sub}"), "ms")
    for name in [n for n in stats if n.startswith("probe.")]:
        row = name[len("probe."):]
        m[f"baseline.{row}.ms"] = (ms(name), "ms")
        if row in BASELINE_EVALS:
            m[f"baseline.{row}.evals"] = (baseline_evals[row], "count")
    return m


def combine(passes: list[dict[str, tuple[float, str]]]) -> tuple[dict, bool]:
    """Median over traced passes for times, the first pass for counts.

    Returns the combined metrics and whether every count repeated exactly.
    """
    combined, repeat = {}, True
    for name, (value, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit in ("count", "bytes"):
            combined[name] = (value, unit)
            repeat = repeat and all(v == value for v in values)
        else:
            combined[name] = (statistics.median(values), unit)
    return combined, repeat


def span_records(tracer: Tracer) -> list[dict]:
    """The kept spans of a pass, with times relative to its first span."""
    t0 = tracer.spans[0][3] if tracer.spans else 0.0
    return [{"id": i, "parent": p, "name": n, "start_ms": 1e3 * (s - t0),
             "ms": 1e3 * (e - s), "self_ms": 1e3 * own}
            for i, p, n, s, e, own in sorted(tracer.spans, key=lambda sp: sp[3])]
