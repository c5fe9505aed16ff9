"""Smoke test of tools/same_outputs.py: two recordings that differ by one ulp
in one SeriesResult, by one byte in one figure file, or by one public name of
the package, ``units`` or ``figures``, show that difference and nothing else."""

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from casimirgrav.numerics import tail_bounded_power_sum

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import same_outputs  # noqa: E402

FIGURE = f"{same_outputs.FILES}/figure2.csv"


@pytest.fixture
def recording(tmp_path, monkeypatch):
    """A recording directory with one SeriesResult and one figure export."""
    out = tmp_path / "parent"
    (out / same_outputs.FILES).mkdir(parents=True)
    monkeypatch.chdir(out)
    records = {
        **same_outputs.public_names(),
        "tail": same_outputs.attempt(tail_bounded_power_sum, 4.0, -1.0, 9742),
        "cli figure": same_outputs.run_cli(["figure", "--id", "2", "--points", "50",
                                            "--out", FIGURE]),
    }
    assert records["cli figure"]["exit"] == 0
    same_outputs.save(out, records)
    return out


def test_identical_recordings_show_no_difference(recording):
    change = shutil.copytree(recording, recording.parent / "change")
    assert same_outputs.differences(recording, change) == []


def test_one_ulp_in_one_series_result_is_reported(recording):
    change = shutil.copytree(recording, recording.parent / "change")
    records = json.loads((change / same_outputs.RECORDS).read_text(encoding="utf-8"))
    value = float.fromhex(records["tail"]["value"])
    records["tail"]["value"] = math.nextafter(value, math.inf).hex()
    same_outputs.save(change, records)
    assert same_outputs.differences(recording, change) == [
        f"tail/value: {value.hex()} -> {records['tail']['value']} "
        f"(relative {math.ulp(value) / abs(value):.3g})"]


def test_one_byte_in_one_figure_file_is_reported(recording):
    change = shutil.copytree(recording, recording.parent / "change")
    path = change / FIGURE
    data = bytearray(path.read_bytes())
    at = data.rindex(b"e") - 1  # the last digit of the last cell's mantissa
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    path.write_bytes(data)
    found = same_outputs.differences(recording, change)
    assert len(found) == 1
    assert found[0].startswith(
        f"{FIGURE}: first difference at byte {at}, size {len(data)} -> {len(data)}, line ")
    assert "(relative " in found[0] and "relative size not numeric" not in found[0]


@pytest.mark.parametrize("module", ["casimirgrav", "casimirgrav.units", "casimirgrav.figures"])
def test_one_missing_public_name_is_reported(recording, module):
    change = shutil.copytree(recording, recording.parent / "change")
    records = json.loads((change / same_outputs.RECORDS).read_text(encoding="utf-8"))
    key = f"{module} public names"
    names = records[key].splitlines()
    records[key] = "\n".join(names[1:])
    same_outputs.save(change, records)
    assert same_outputs.differences(recording, change) == [
        f"{key}: line 1: {names[0]!r} -> {names[1]!r} (relative size not numeric)"]
