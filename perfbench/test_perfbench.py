"""The benchmark's own tests: every workload at a tiny size.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root, workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def copy_checkout(tmp_path, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(run_bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_no_timed_op_fails():
    for workload in WORKLOADS:
        result = result_of(run_bench(ROOT, workload, 0))
        assert result["failed"] == 0


def test_known_defects_are_listed_by_family_and_size():
    proc = run_bench(ROOT, "alignment-heavy", 0)
    result = result_of(proc)
    defects = [json.loads(line)["defect_probe"] for line in proc.stdout.splitlines()
               if line.startswith('{"defect_probe"')]
    assert result["correct"] is True
    assert defects and all(d["known_defect"] for d in defects)
    assert {d["family"] for d in defects} >= {"posets.chain", "ordinals.nesting"}


def test_a_planted_wrong_answer_is_counted(tmp_path):
    checkout = copy_checkout(tmp_path)
    posets = checkout / "src" / "ordcopies" / "posets.py"
    text = posets.read_text(encoding="utf-8")
    planted = text.replace("return _implies(~le, witnessed)", "return not _implies(~le, witnessed)")
    assert planted != text
    posets.write_text(planted, encoding="utf-8")
    result = result_of(run_bench(checkout, "property-mix", 0))
    assert result["correct"] is False
    assert result["failed"] > 0


def test_the_package_is_left_unmodified():
    before = tree_digest(ROOT / "src")
    for workload in WORKLOADS:
        result_of(run_bench(ROOT, workload, 1))
    assert tree_digest(ROOT / "src") == before


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    checkout = copy_checkout(tmp_path, with_src=False)
    proc = run_bench(checkout, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    spans = [
        ["op.x", 0, 100, None, "0:0", False],
        ["layer.a", 10, 40, 0, "0:0", False],
        ["layer.b", 50, 60, 0, "0:0", True],
        ["layer.a", 70, 90, 0, "0:0", False],
    ]
    assert tracing.self_times(spans) == pytest.approx([40e-9, 30e-9, 10e-9, 20e-9])
    totals = tracing.layer_totals(spans)
    assert totals["layer.a"][:1] == (2,) and totals["layer.a"][1] == pytest.approx(50e-9)
    assert totals["layer.b"][2] == 1
