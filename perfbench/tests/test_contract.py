"""The benchmark's promises about itself: what it imports, what
BENCHMARK.json says, and that counts repeat."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from perfbench.harness import WORKLOADS
from perfbench.metrics import COUNT_TYPED, benchmark_json

PERFBENCH = Path(__file__).resolve().parents[1]
FORBIDDEN = ("repro.bench", "repro.workloads", "repro.obs.prof")


def test_perfbench_does_not_import_what_later_issues_will_change():
    for path in PERFBENCH.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                modules += [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for module in modules:
                for banned in FORBIDDEN:
                    assert module != banned and not module.startswith(banned + "."), f"{path}: {module}"


def test_benchmark_json_is_the_catalogue():
    committed = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert committed == benchmark_json(WORKLOADS.values())


def smoke(tmp_path: Path, tag: str) -> dict:
    out = tmp_path / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--seed", "5", "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def test_two_smoke_runs_agree_on_every_count(tmp_path):
    first, second = smoke(tmp_path, "a"), smoke(tmp_path, "b")
    assert first["smoke"] and not first["comparable"]
    assert set(first["workloads"]) == set(WORKLOADS)
    compared = 0
    for name, result in first["workloads"].items():
        assert result["failed"] == 0 and result["correct"]
        again = second["workloads"][name]["metrics"]
        for metric, value in result["metrics"].items():
            if metric in COUNT_TYPED:
                assert again[metric] == value, (name, metric)
                compared += 1
    assert compared > 100
