import json
import math
import re

import pytest

from casimirgrav.cli import main


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
    assert main([
        "gravity", "--L", "0.1", "--a", "1", "--xi0", "0.5",
        "--alpha", str(math.pi / 2), "--g", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert abs(_value_after_equals(out.splitlines()[0])) <= 1e-12


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


def test_figure_bad_range_exits_2(capsys):
    assert main(["figure", "--id", "1", "--out", "/tmp/x.csv", "--Lmin", "5", "--Lmax", "1"]) == 2


def test_figure_io_failure_exits_4(capsys):
    assert main(["figure", "--id", "1", "--out", "/no/such/dir/fig.csv"]) == 4


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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
