"""Smoke test of tools/layer_timing.py: one row, timed in fresh interpreters of
the same tree on both sides, gives a full report line."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import layer_timing  # noqa: E402

ROW = "abel_plana_regularized_power_sum(3)"


def test_one_row_on_one_tree(tmp_path):
    sides = {side: layer_timing.prepare(ROOT, tmp_path / side) for side in ("parent", "change")}
    assert not any((tmp_path / "parent" / "bare").rglob("*.pyc"))
    assert any((tmp_path / "parent" / "cached").rglob("*.pyc"))
    [result] = layer_timing.compare([ROW], sides, passes=1)
    for side in sides:
        # INTERPRETERS interpreters per side and pass, ROUNDS rounds each
        assert len(result["us"][side]) == layer_timing.INTERPRETERS * layer_timing.ROUNDS
        assert all(us > 0 for us in result["us"][side])
    assert result["evals"] == {"parent": 96, "change": 96}
    [line] = layer_timing.report([result])
    assert line.startswith(f"{ROW}: parent ") and ", evals 96 / 96, ratio " in line
