"""Smoke test of the benchmark itself: a tiny seeded pass of each workload.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_every_metric_with_its_unit(workload, trace):
    lines = _bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    text = "\n".join(lines[:-1])
    for m in wanted:
        assert re.search(rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}(\s|$)", text,
                         re.M), m["name"]
    if not trace:
        assert re.search(r"^failed_ratio\s+0\s+ratio\b", text, re.M)
        assert re.search(r"^bound_miss_ratio\s+\S+\s+ratio\b", text, re.M)


def _off(value):
    """A deliberately wrong reference value: every number in it off by 0.1 %."""
    if isinstance(value, dict):
        return {k: _off(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_off(v) for v in value]
    return value * (1 + 1e-3)


def _wrong_references(ref: dict):
    """(label, reference) pairs, each with one checked value made wrong.

    An op that should exit with an error gets another exit code. Any other op
    keeps its exit code and gets each of its values, or each figure column,
    wrong in turn, so that every value check is shown able to fail.
    """
    if ref.get("exit"):
        yield "exit", {**ref, "exit": ref["exit"] + 1}
        return
    for key, value in ref.items():
        if key in ("exit", "limit"):  # "limit" feeds only the bound-miss count
            continue
        if key == "rows":
            for j in range(len(next(iter(value.values())))):
                rows = {i: [_off(v) if k == j else v for k, v in enumerate(row)]
                        for i, row in value.items()}
                yield f"column {j}", {**ref, "rows": rows}
        else:
            yield key, {**ref, key: _off(value)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_is_counted_as_failure(workload, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    wl = workloads.WORKLOADS[workload]
    ctx = workloads.Context(workloads.load_api(), tmp_path)
    seen = set()
    for op in itertools.islice(wl.ops(3), 22):
        kind = op.get("kind", wl.name)
        seen.add(f"figure {op['id']}" if kind == "figure" else kind)
        out = wl.replay(op, ctx)
        ref = wl.reference(op)
        assert run.judge(wl, op, out, None, ref, ctx).passed, op
        wrong = list(_wrong_references(ref))
        assert wrong, op
        for label, bad in wrong:
            outcome = run.judge(wl, op, out, None, bad, ctx)
            assert not outcome.passed, (label, op)
            if label != "exit":
                assert "exit code" not in outcome.detail, (label, outcome.detail)
    if workload == "cli-session":  # one whole cycle: every quick kind and figure
        assert seen == set(workloads.QUICK_KINDS) | {f"figure {k}" for k in range(1, 7)}
