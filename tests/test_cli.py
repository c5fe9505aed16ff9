import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from casimirgrav import cli
from casimirgrav.cavity import L_MAX, L_MIN, CavityConfig, brown_maclay_tensor
from casimirgrav.cli import main
from casimirgrav.errors import (
    ConvergenceError,
    DivergentSeriesError,
    DomainError,
    GeometryError,
    LightConeError,
    RegimeWarning,
)
from casimirgrav.figures import FigureSpec, figure_series, write_csv
from casimirgrav.units import HBAR_C, energy_like_to_si


def _value_after_equals(line):
    return float(line.split("=")[1].split()[0])


def test_compute_pressure_natural(capsys):
    assert main(["compute", "pressure", "--L", "1"]) == 0
    out = capsys.readouterr().out
    assert _value_after_equals(out) == pytest.approx(-(math.pi ** 2) / 240.0, rel=1e-14)


def test_compute_energy_per_area_natural(capsys):
    assert main(["compute", "energy-per-area", "--L", "1"]) == 0
    out = capsys.readouterr().out
    assert _value_after_equals(out) == pytest.approx(-(math.pi ** 2) / 720.0, rel=1e-14)


def test_compute_pressure_si_micron(capsys):
    assert main(["compute", "pressure", "--L", "1e-6", "--units", "si"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("Pa")
    assert _value_after_equals(out) == pytest.approx(-1.30013e-3, rel=1e-3)


def test_compute_stress_tensor(capsys):
    assert main(["compute", "stress-tensor", "--L", "1"]) == 0
    out = capsys.readouterr().out
    numbers = [float(tok) for tok in re.findall(r"-?\d+\.\d+(?:e[+-]?\d+)?", out)]
    assert -(math.pi ** 2) / 240.0 in [pytest.approx(n, rel=1e-12) for n in numbers]
    assert "trace" in out and _value_after_equals(out.splitlines()[-1]) == 0.0


def test_stress_tensor_trace_in_output_units(capsys):
    argv = ["compute", "stress-tensor", "--L", "1e-6", "--flip-transverse-y"]
    traces = []
    for units in ("natural", "si"):
        assert main(argv + ["--units", units]) == 0
        traces.append(_value_after_equals(capsys.readouterr().out.splitlines()[-1]))
    natural, si = traces
    assert si == pytest.approx(-8.66750514965169e-4, rel=1e-13)
    assert si == pytest.approx(natural * HBAR_C, rel=1e-13)


@pytest.mark.parametrize("units", ["natural", "si"])
@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("polarizations", [1, 2])
def test_stress_tensor_prints_what_the_library_tensor_formats(units, flip, polarizations,
                                                              capsys):
    # the command prints from float kernels, the library tensor is a numpy array:
    # every row and the trace must print alike, or exit 2 where a value underflows
    out = energy_like_to_si if units == "si" else float
    rng = random.Random(2026)
    for _ in range(25):
        L = 10.0 ** rng.uniform(math.log10(L_MIN), math.log10(L_MAX))
        tensor = brown_maclay_tensor(CavityConfig(L, polarizations), flip_transverse_y=flip)
        argv = ["compute", "stress-tensor", "--L", repr(L), "--units", units,
                "--polarizations", str(polarizations)] + ["--flip-transverse-y"] * flip
        try:
            want = ["  " + "  ".join(f"{out(v):>22.15g}" for v in row)
                    for row in tensor.components]
            want.append(f"trace (eta_mn T^mn) = {out(tensor.trace()):.15g}")
        except DomainError:
            assert main(argv) == 2, argv
            assert capsys.readouterr().out == ""
            continue
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines()[1:] == want, argv


@pytest.mark.parametrize("argv", [
    ["compute", "energy-density", "--L", "1e75", "--units", "si"],
    ["compute", "pressure", "--L", "1e75", "--units", "si"],
    ["compute", "stress-tensor", "--L", "1e75", "--units", "si"],
    ["gravity", "--L", "1e-6", "--a", "1e-4", "--xi0", "1e-5", "--g", "1e-300", "--units", "si"],
])
def test_si_conversion_underflow_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "underflows" in captured.err
    assert captured.out == ""


# the closed form refuses a bad --tolerance as the quadrature does, and SI mode
# checks --g as typed, before converting it, as natural units do
@pytest.mark.parametrize("argv, message", [
    (["--tolerance", "5"], "relative_tolerance must lie in (0, 1e-2]"),
    (["--units", "si", "--g", "-1"], "field order parameter must be finite and >= 0, got -1.0"),
    (["--units", "si", "--g", "nan"], "field order parameter must be finite and >= 0, got nan"),
])
def test_gravity_checks_each_option_as_given(argv, message, capsys):
    assert main(["gravity", "--L", "0.1", "--a", "1", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_si_conversion_rescales_a_subnormal_intermediate(capsys):
    # T^00 * hbar is subnormal at L = 1e70, but T^00 * hbar * c is normal
    assert main(["compute", "stress-tensor", "--L", "1e70", "--units", "si"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[0] == "-4.33375257482584e-308"


@pytest.mark.parametrize("argv", [
    ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--g", "1e-320"],
    ["gravity", "--L", "1e70", "--a", "1e71", "--xi0", "1", "--g", "1e-300"],
    ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--g", "1e-320",
     "--method", "quadrature"],
])
def test_natural_unit_underflow_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "underflows" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("zero_flag", [["--g", "0"], ["--xi0", "0"]])
def test_exact_zero_shift_is_printed(zero_flag, capsys):
    argv = ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--g", "0.01"]
    assert main(argv + zero_flag) == 0
    lines = capsys.readouterr().out.splitlines()
    assert _value_after_equals(lines[0]) == 0.0
    forces = [_value_after_equals(ln) for ln in lines[1:]]
    assert all(v == 0.0 for v in forces) == (zero_flag[0] == "--g")


@pytest.mark.parametrize("zero_flag", [["--xi0", "0"], ["--g", "0"]])
def test_quadrature_against_an_exact_zero_reports_the_absolute_gap(zero_flag, capsys):
    argv = ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--g", "0.3",
            "--method", "quadrature"]
    assert main(argv + zero_flag) == 0
    lines = capsys.readouterr().out.splitlines()
    quad = _value_after_equals(lines[0])
    assert lines[1] == f"absolute discrepancy vs closed form (exactly 0) = {abs(quad):.3e}"
    # pins this input only: its quadrature is exactly 0, and the gap line prints
    # that 0; other xi0 = 0 inputs can give a rounding-noise value, which stays
    # within the bound (test_delta_energy_grid_agreement and the bound search)
    assert abs(quad) <= 1e-15 and quad == 0


def test_compute_invalid_separation_exits_2(capsys):
    assert main(["compute", "pressure", "--L", "0"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compute", "pressure", "--L", "nan"],
    ["compute", "pressure", "--L", "inf"],
    ["gravity", "--L", "nan", "--a", "1"],
    ["gravity", "--L", "0.1", "--a", "nan"],
    ["gravity", "--L", "0.1", "--a", "2", "--xi0", "nan"],
    ["regularize", "--L", "nan"],
])
def test_non_finite_geometry_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["compute", "pressure", "--L", "1e-300"],
    ["compute", "pressure", "--L", "1e300"],
    ["regularize", "--L", "1e300"],
    ["compute", "energy-density", "--L", "1e-78"],
    ["figure", "--id", "1", "--Lmin", "1e-100", "--Lmax", "1e-99"],
])
def test_separation_outside_double_range_exits_2(argv, tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    if argv[0] == "figure":
        argv = argv + ["--out", str(out_file)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_file.exists()


def _fresh_env():
    """The environment of a fresh interpreter on this checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _run_in_fresh_interpreter(lines):
    """Run ``lines`` in a fresh interpreter on this checkout's sources, after
    ``import contextlib, io, sys``; a line may assert on ``sys.modules``."""
    code = "\n".join(["import contextlib, io, sys", *lines])
    proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# `zeta --s 4 | true`, without the race: the reader has left before the write
def test_stdout_closed_early_exits_4_and_prints_nothing():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "casimirgrav", "zeta", "--s", "4"],
                              stdout=write_end, stderr=subprocess.PIPE, env=_fresh_env(),
                              timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (4, b"")


def test_math_only_commands_load_no_numpy():
    _run_in_fresh_interpreter([
        "import casimirgrav.cli as cli",
        "assert 'numpy' not in sys.modules, 'import'",
        "for argv in (['zeta', '--s', '4'], ['compute', 'pressure', '--L', '1'],",
        "             ['gravity', '--L', '0.1', '--a', '1', '--xi0', '0.5'],",
        "             ['regularize', '--L', '1'],",
        "             ['compute', 'stress-tensor', '--L', '1'],",
        "             ['compute', 'stress-tensor', '--L', '1e-6', '--units', 'si'],",
        "             ['compute', 'stress-tensor', '--L', '1', '--flip-transverse-y'],",
        "             ['compute', 'stress-tensor', '--L', '1e-6', '--units', 'si',",
        "              '--flip-transverse-y'],",
        "             ['gravity', '--L', '0.1', '--a', '1', '--xi0', '0.5', '--alpha', '0.3',",
        "              '--g', '0.01', '--method', 'quadrature']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(argv) == 0, argv",
        "    assert 'numpy' not in sys.modules, argv",
    ])


def test_quadrature_library_calls_load_no_numpy():
    _run_in_fresh_interpreter([
        "from casimirgrav import PlateApparatus, WeakField, compare_schemes,"
        " delta_energy_quadrature",
        "compare_schemes(1.0)",
        "assert 'numpy' not in sys.modules, 'compare_schemes'",
        "delta_energy_quadrature(PlateApparatus(1.0, 0.1, 0.5, 0.3), WeakField(0.01))",
        "assert 'numpy' not in sys.modules, 'delta_energy_quadrature'",
    ])


def test_figure_exports_load_no_numpy(tmp_path):
    _run_in_fresh_interpreter([
        "import casimirgrav.cli as cli",
        "from casimirgrav.figures import FigureSpec, figure_series",
        f"out = {str(tmp_path / 'fig')!r}",
        "for k in range(1, 7):",
        "    for fmt in ('csv', 'json'):",
        "        with contextlib.redirect_stdout(io.StringIO()):",
        "            argv = ['figure', '--id', str(k), '--format', fmt, '--out', out]",
        "            assert cli.main(argv) == 0, argv",
        "        assert 'numpy' not in sys.modules, argv",
        "    data = figure_series(FigureSpec(k))",
        "    assert 'numpy' not in sys.modules, k",
        "data.rows",
        "assert 'numpy' in sys.modules, 'rows'",
    ])


def test_cli_loads_neither_dataclasses_nor_json(tmp_path):
    # only modules the interpreter had not loaded before casimirgrav count
    _run_in_fresh_interpreter([
        "absent = {'dataclasses', 'json'} - set(sys.modules)",
        "import casimirgrav.cli as cli",
        "assert not absent & set(sys.modules), 'import'",
        f"out = {str(tmp_path / 'fig')!r}",
        "for argv, code in ((['zeta', '--s', '4'], 0), (['compute', 'pressure', '--L', '1'], 0),",
        "                   (['gravity', '--L', '0.1', '--a', '1', '--xi0', '0.5'], 0),",
        "                   (['gravity', '--L', '0.1', '--a', '1', '--xi0', '0.5',",
        "                     '--method', 'quadrature'], 0),",
        "                   (['regularize', '--L', '1'], 0), (['zeta', '--s', '0.5'], 2),",
        "                   (['figure', '--id', '4', '--out', out], 0)):",
        "    with contextlib.redirect_stdout(io.StringIO()), \\",
        "            contextlib.redirect_stderr(io.StringIO()):",
        "        assert cli.main(argv) == code, argv",
        "    assert not absent & set(sys.modules), argv",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['figure', '--id', '4', '--format', 'json', '--out', out]) == 0",
        "assert 'json' in sys.modules",
    ])


def test_compute_unknown_quantity_exits_2(capsys):
    assert main(["compute", "entropy", "--L", "1"]) == 2


def test_gravity_closed_reference(capsys):
    assert main([
        "gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--alpha", "0", "--g", "1",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert _value_after_equals(lines[0]) == pytest.approx(6.8538919452, rel=1e-9)
    report = {ln.split("=")[0].strip(): _value_after_equals(ln) for ln in lines}
    assert report["Delta F / A"] == pytest.approx(-(math.pi ** 2) / 720.0 * 1e3, rel=1e-12)
    assert report["F_iso / A"] == pytest.approx(2.0 * (math.pi ** 2) / 720.0 * 1e3, rel=1e-12)
    assert report["F_fermi / A"] == pytest.approx((math.pi ** 2) / 720.0 * 1e3, rel=1e-12)
    assert report["fractional correction (Delta F / F_flat)"] == pytest.approx(0.1 / 3.0)


def test_gravity_quadrature_discrepancy(capsys):
    assert main([
        "gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5", "--g", "1",
        "--method", "quadrature",
    ]) == 0
    out = capsys.readouterr().out
    match = re.search(r"relative discrepancy vs closed form = (\S+)", out)
    assert match and float(match.group(1)) <= 1e-6


def test_gravity_horizontal_reports_zero(capsys):
    outputs = []
    for alpha in (math.pi / 2, -math.pi / 2):  # cos is even, to the bit
        assert main([
            "gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5",
            f"--alpha={alpha!r}", "--g", "1",
        ]) == 0
        outputs.append(capsys.readouterr().out)
    assert abs(_value_after_equals(outputs[0].splitlines()[0])) <= 1e-12
    assert outputs[1] == outputs[0]


def test_gravity_si_units(capsys):
    assert main([
        "gravity", "--L", "1e-6", "--a", "1e-4", "--xi0", "0", "--g", "9.8",
        "--units", "si",
    ]) == 0
    report = {ln.split("=")[0].strip(): _value_after_equals(ln)
              for ln in capsys.readouterr().out.splitlines()}
    fermi = report["F_fermi / A"]
    assert 0.0 < fermi < 1e-24  # positive and tiny in pascals


def test_figure_csv_and_reproducibility(tmp_path, capsys):
    out_file = tmp_path / "fig1.csv"
    assert main(["figure", "--id", "1", "--out", str(out_file), "--points", "25"]) == 0
    lines = out_file.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "L,energy_density"
    assert len(body) == 26
    from casimirgrav.cavity import energy_density

    for line in body[1:]:
        l_text, value = line.split(",")
        assert float(value) == pytest.approx(energy_density(float(l_text)), rel=1e-12)


def test_figure_json(tmp_path, capsys):
    out_file = tmp_path / "fig5.json"
    assert main([
        "figure", "--id", "5", "--out", str(out_file), "--format", "json",
        "--points", "10", "--L-list", "0.5,1",
    ]) == 0
    rows = json.loads(out_file.read_text())
    assert len(rows) == 10
    assert list(rows[0].keys()) == ["A", "delta_force[L=0.5]", "delta_force[L=1]"]


# :g printed both areas as 1, so json.load kept 2 of each row's 3 columns
def test_figure_json_keeps_columns_whose_inputs_differ_past_6_digits(tmp_path, capsys):
    out_file = tmp_path / "fig4.json"
    assert main(["figure", "--id", "4", "--A-list", "1,1.0000001", "--format", "json",
                 "--points", "3", "--out", str(out_file)]) == 0
    rows = json.loads(out_file.read_text())
    assert [list(row) for row in rows] == [
        ["L", "delta_force[A=1]", "delta_force[A=1.0000001]"]] * 3


# an input printed back reads back as the same double; results keep 15 digits
@pytest.mark.parametrize("argv, head", [
    (["zeta", "--s", "1.0000000000000002"], "zeta(1.0000000000000002) = 4.5035996273705e+15\n"),
    (["zeta", "--s", "4"], "zeta(4) = 1.08232323371114\n"),
    (["regularize", "--L", "1.0000000000000002"],
     "scalar energy per area at L = 1.0000000000000002 (natural units):\n"),
    (["regularize", "--L", "0.3"], "scalar energy per area at L = 0.3 (natural units):\n"),
], ids=["s-next-to-1", "s-4", "L-next-to-1", "L-0.3"])
def test_printed_inputs_round_trip(argv, head, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(head)


@pytest.mark.parametrize("text, message", [
    ("1,x", "expected comma-separated numbers, got '1,x'"), (",", "empty list: ','")])
@pytest.mark.parametrize("flag", ["--A-list", "--L-list"])
def test_unreadable_list_exits_2(flag, text, message, tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    assert main(["figure", "--id", "4", flag, text, "--out", str(out_file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_file.exists()


# a repeated value would name two columns alike, and json.load would keep one
@pytest.mark.parametrize("argv, message", [
    (["--id", "4", "--A-list", "1,1"], "A_list must not repeat a value, got (1.0, 1.0)"),
    (["--id", "5", "--L-list", "0.5,2,0.5"],
     "L_list must not repeat a value, got (0.5, 2.0, 0.5)"),
], ids=["figure-4", "figure-5"])
def test_repeated_list_value_exits_2(argv, message, tmp_path, capsys):
    out_file = tmp_path / "fig.json"
    assert main(["figure", *argv, "--format", "json", "--out", str(out_file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("fig_id, option", [("4", "--A-list"), ("5", "--L-list")])
def test_figure_past_the_cell_limit_exits_2_without_a_sweep(fig_id, option, tmp_path,
                                                              monkeypatch, capsys):
    def no_sweep(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "figure_series", no_sweep)
    out_file = tmp_path / "fig.csv"
    assert main(["figure", "--id", fig_id, option, "1,2,3,4", "--points", "1000000",
                 "--out", str(out_file)]) == 2
    assert capsys.readouterr().err == (
        f"error: figure {fig_id} would have 5000000 cells, over the limit of 4000000\n")
    assert not out_file.exists()


# the library supplies every default, so a minimal command line sets no library option
@pytest.mark.parametrize("argv, parsed", [
    (["compute", "pressure", "--L", "1"], {"quantity": "pressure", "L": 1.0, "units": "natural"}),
    (["gravity", "--L", "0.1", "--a", "1"],
     {"L": 0.1, "a": 1.0, "g": 1.0, "method": "closed", "units": "natural"}),
    (["figure", "--id", "4", "--out", "f.csv"], {"fig_id": 4, "out": "f.csv", "format": "csv"}),
    (["regularize", "--L", "1"], {"L": 1.0}),
    (["zeta", "--s", "4"], {"s": 4.0}),
], ids=["compute", "gravity", "figure", "regularize", "zeta"])
def test_minimal_command_line_sets_no_library_option(argv, parsed):
    args = vars(cli.build_parser().parse_args(argv))
    assert args.pop("command") == argv[0]
    assert args.pop("func") is getattr(cli, f"_cmd_{argv[0]}")
    assert args == parsed


@pytest.mark.parametrize("fig_id", range(1, 7))
def test_figure_without_options_writes_the_library_default(fig_id, tmp_path, capsys):
    out_file = tmp_path / "cli.csv"
    assert main(["figure", "--id", str(fig_id), "--out", str(out_file)]) == 0
    write_csv(figure_series(FigureSpec(fig_id)), str(tmp_path / "library.csv"))
    assert out_file.read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_figure_bad_range_exits_2(capsys):
    assert main(["figure", "--id", "1", "--out", "/tmp/x.csv", "--Lmin", "5", "--Lmax", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["figure", "--id", "5", "--Amax", "inf"],
    ["figure", "--id", "4", "--A-list", "1,inf"],
    ["figure", "--id", "2", "--Lmax", "inf"],
    ["figure", "--id", "1", "--g", "nan"],
    ["figure", "--id", "6", "--g", "inf"],
    ["gravity", "--L", "0.1", "--a", "1", "--g", "nan"],
    ["gravity", "--L", "0.1", "--a", "1", "--g", "inf"],
])
def test_non_finite_sweep_or_gravity_exits_2(argv, tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    if argv[0] == "figure":
        argv = argv + ["--out", str(out_file)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["gravity", "--L", "0.1", "--a", "1e200", "--xi0", "0.5"],
    ["gravity", "--L", "0.1", "--a", "1", "--xi0", "1e307", "--g", "1e300"],
    ["gravity", "--L", "0.1", "--a", "1e200", "--xi0", "0.5", "--method", "quadrature"],
    # Delta E_g is finite here, F_iso / A = -2 g E_C is not
    ["gravity", "--L", "1e-75", "--a", "1e-70", "--xi0", "1e-300", "--g", "1e85"],
    ["figure", "--id", "4", "--A-list", "1e308", "--Lmin", "0.01", "--Lmax", "0.02"],
    ["figure", "--id", "5", "--Amin", "1e307", "--Amax", "1e308", "--g", "1e10"],
    ["figure", "--id", "5", "--Amax", "1e308", "--L-list", "0.01"],
    ["figure", "--id", "6", "--g", "1e308", "--Lmin", "1e-75", "--Lmax", "1e-74"],
])
def test_finite_inputs_with_overflowing_results_exit_2(argv, tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    if argv[0] == "figure":
        argv = argv + ["--out", str(out_file)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert not re.search(r"\b(inf|nan)\b", captured.err, re.IGNORECASE)
    assert not out_file.exists()


# the first quantity that leaves the double range names the error, as in the closed forms
@pytest.mark.parametrize("argv, quantity", [
    (["--id", "4", "--g", "1e308", "--Lmin", "0.1"], "Delta F / A overflows"),
    (["--id", "6", "--g", "1e308", "--Lmin", "0.2"], "F_iso / A overflows"),
    (["--id", "5", "--g", "1e-310"], "Delta F / A underflows"),
    (["--id", "4", "--g", "1e308", "--Lmin", "0.2"], "figure 4 overflows"),
])
def test_figure_range_errors_name_the_first_quantity(argv, quantity, tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    assert main(["figure", *argv, "--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {quantity} the double range for these inputs\n"
    assert captured.out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["figure", "--id", "4", "--A-list", "1e-320"],
    ["figure", "--id", "5", "--Amin", "1e-320", "--Amax", "1e-319"],
])
def test_figure_cells_that_underflow_exit_2(argv, tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    assert main(argv + ["--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "underflows" in captured.err
    assert captured.out == ""
    assert not out_file.exists()
    assert main(argv + ["--g", "0", "--out", str(out_file)]) == 0
    body = [ln.split(",") for ln in out_file.read_text().splitlines() if ln[0] not in "#LA"]
    assert len(body) == 200 and all(float(v) == 0.0 for row in body for v in row[1:])


@pytest.mark.parametrize("points", ["1000001", "100000000000"])
def test_figure_points_above_cap_exit_2(points, tmp_path, capsys):
    out_file = tmp_path / "fig.csv"
    assert main(["figure", "--id", "1", "--points", points, "--out", str(out_file)]) == 2
    assert capsys.readouterr().err.startswith("error: sweeps need 2 to 1000000 points")
    assert not out_file.exists()


def test_figure_io_failure_exits_4(capsys):
    assert main(["figure", "--id", "1", "--out", "/no/such/dir/fig.csv"]) == 4


LIBRARY_CALLS = [
    ("riemann_zeta", ["zeta", "--s", "4"]),
    ("delta_energy_quadrature", ["gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5",
                                 "--method", "quadrature"]),
    ("compare_schemes", ["regularize", "--L", "1"]),
]


# No known CLI input reaches exit 3; it guards against library failures, so
# each command's library call is made to fail here.
@pytest.mark.parametrize("exc", [ConvergenceError("no convergence within 40 splits"),
                                 ZeroDivisionError("float division by zero"),
                                 ValueError("math domain error")],
                         ids=lambda exc: type(exc).__name__)
@pytest.mark.parametrize("name, argv", LIBRARY_CALLS)
def test_library_failures_exit_3(name, argv, exc, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, name, fail)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure:")
    assert str(exc) in err


# Every kind of DomainError exits 2, from whichever library call raises it.
@pytest.mark.parametrize("exc", [GeometryError("plate separation must lie in [1e-75, 1e+75]"),
                                 DivergentSeriesError("sum of 1/n^p diverges for p = 1"),
                                 LightConeError("propagator singular on the light cone")],
                         ids=lambda exc: type(exc).__name__)
@pytest.mark.parametrize("name, argv", LIBRARY_CALLS)
def test_domain_error_family_exits_2(name, argv, exc, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, name, fail)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {exc}\n"


def test_gravity_prints_each_distinct_regime_warning_once(capsys):
    # a/L = 5 warns once; the closed form and the quadrature both warn on g * extent
    assert main(["gravity", "--L", "0.2", "--a", "1", "--xi0", "0.5", "--g", "1",
                 "--method", "quadrature"]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        "warning: aspect ratio a/L = 5 < 10; edge effects neglected by the closed forms "
        "may be significant",
        "warning: g * apparatus extent = 1.6 > 0.1; outside the linearized weak-field regime",
    ]
    assert out.startswith("Delta E_g (quadrature) = ")


def test_failure_after_a_regime_warning_prints_only_the_error(capsys):
    # g * extent = 1e200 warns, then A g E_C xi0 overflows
    assert main(["gravity", "--L", "0.1", "--a", "1e200", "--xi0", "0.5"]) == 2
    assert capsys.readouterr() == ("", "error: Delta E_g overflows the double range for "
                                       "these inputs\n")


def test_every_command_reports_regime_warnings(monkeypatch, capsys):
    def zeta_that_warns(s):
        warnings.warn("s outside the tested regime", RegimeWarning)
        warnings.warn("s outside the tested regime", RegimeWarning)
        return 1.5

    monkeypatch.setattr(cli, "riemann_zeta", zeta_that_warns)
    assert main(["zeta", "--s", "4"]) == 0
    assert capsys.readouterr() == ("zeta(4) = 1.5\n", "warning: s outside the tested regime\n")


def test_regularize_report(capsys):
    assert main(["regularize", "--L", "1"]) == 0
    out = capsys.readouterr().out
    for name in ("image-sum", "abel-plana", "zeta"):
        assert name in out
    match = re.search(r"max pairwise relative discrepancy = (\S+)", out)
    assert match and float(match.group(1)) <= 1e-8


def test_regularize_single_image_term_reports_tail_bound(capsys):
    assert main(["regularize", "--L", "1", "--n-terms", "1"]) == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if "image-sum" in ln)
    bound = float(line.split("error bound =")[1])
    assert bound == pytest.approx(1.0 / (48.0 * math.pi ** 2), rel=1e-3)


def test_regularize_invalid_separation_exits_2(capsys):
    assert main(["regularize", "--L", "-1"]) == 2


@pytest.mark.parametrize("n_terms", ["0", "1000001"])
def test_regularize_n_terms_out_of_range_exits_2(n_terms, capsys):
    assert main(["regularize", "--L", "1", "--n-terms", n_terms]) == 2
    assert capsys.readouterr().err.startswith("error: scheme image-sum:")


def test_regularize_out_of_range_tolerance_exits_2(capsys):
    assert main(["regularize", "--L", "1", "--tolerance", "0.5"]) == 2
    assert "error" in capsys.readouterr().err


def test_zeta_command(capsys):
    assert main(["zeta", "--s", "4"]) == 0
    assert _value_after_equals(capsys.readouterr().out) == pytest.approx(
        math.pi ** 4 / 90.0, rel=1e-14
    )


def test_zeta_out_of_domain_exits_2(capsys):
    assert main(["zeta", "--s", "1"]) == 2


@pytest.mark.parametrize("s", ["nan", "inf"])
def test_zeta_non_finite_exits_2(s, capsys):
    assert main(["zeta", "--s", s]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_zeta_huge_s_is_one(capsys):
    assert main(["zeta", "--s", "1e308"]) == 0
    assert capsys.readouterr().out == "zeta(1e+308) = 1\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
