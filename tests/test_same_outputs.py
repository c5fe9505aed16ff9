"""Smoke test of tools/same_outputs.py: two recordings that differ by one ulp
in one SeriesResult, by one byte in one figure file, by one public name of
the package, ``units`` or ``figures``, or by a default or a method of the
API, show that difference and nothing else."""

import json
import math
import shutil
import sys
import types
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


PARENT_API = """
def diff(f, x, h=None):
    pass

class Result:
    def scaled(self, c):
        pass

    def __add__(self, other):
        pass
"""

# the same names, with the step's default and Result.__add__ gone
CHANGE_API = """
def diff(f, x, h):
    pass

class Result:
    def scaled(self, c):
        pass
"""


def test_a_dropped_default_and_a_dropped_method_are_reported(tmp_path):
    outs = []
    for side, source in (("parent", PARENT_API), ("change", CHANGE_API)):
        module = types.ModuleType("api")
        exec(source, module.__dict__)
        out = tmp_path / side
        (out / same_outputs.FILES).mkdir(parents=True)
        same_outputs.save(out, same_outputs.api_records(module, ["diff", "Result"]))
        outs.append(out)
    assert same_outputs.differences(*outs) == [
        "api.Result attributes: line 1: '__add__' -> '__dict__' (relative size not numeric)",
        "api.diff signature: line 1: '(f, x, h=None)' -> '(f, x, h)' (relative size not numeric)",
    ]
