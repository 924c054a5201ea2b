"""Self-tests for the benchmark: every workload, tiny inputs, both modes.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}, proc.stdout + proc.stderr


class SmokeTest(unittest.TestCase):
    def check(self, workload: str, trace: int, spec: list[dict]) -> None:
        code, result, text = run("--workload", workload, "--smoke", "--seconds", "0",
                                 "--trace", str(trace))
        self.assertEqual(code, 0, text)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], text)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in spec}
        self.assertEqual(sorted(result["metrics"]), sorted(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric, {"value": metric["value"], "unit": units[name]}, name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics(self) -> None:
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self.check(workload, 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self) -> None:
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self.check(workload, 1, SPEC["per_layer"])

    def test_checks_reject_wrong_outputs(self) -> None:
        import checks
        import workloads

        sys.path.insert(0, str(ROOT / "src"))
        import subtreecount
        import subtreecount.cli

        for workload in ("subtree-large", "bc-large"):
            for req in workloads.Generator(workload, 3, smoke=True).pass_requests(0)[:40]:
                good = workloads.run_request(subtreecount, req)
                self.assertIsNone(checks.check(subtreecount, req, good), req.rid)
                self.assertIsNotNone(checks.check(subtreecount, req, good + subtreecount.ONE), req.rid)
        with tempfile.TemporaryDirectory() as tmp:
            for req in workloads.Generator("density-sweep", 3, smoke=True).pass_requests(0)[:6]:
                path = Path(tmp) / "out.csv"
                self.assertEqual(workloads.run_request(subtreecount, req, str(path)), 0)
                good = path.read_bytes() + b"\0" + (Path(tmp) / "out_mean.csv").read_bytes()
                self.assertIsNone(checks.check(subtreecount, req, good), req.rid)
                self.assertIsNotNone(checks.check(subtreecount, req, good.replace(b",", b";", 1)), req.rid)

    def test_integer_dp_matches_the_oracle(self) -> None:
        import random

        import checks
        import workloads

        sys.path.insert(0, str(ROOT / "src"))
        import subtreecount

        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(2, 10)
            edges = [(f"v{a}", f"v{b}") for a, b in workloads.pruefer_edges(n, rng)]
            t = subtreecount.tree.parse_edge_list("".join(f"{a} {b}\n" for a, b in edges))
            root = f"v{rng.randrange(n)}"
            for k in range(4):
                total, containing = checks.capped_subtrees(edges, k, root)
                self.assertEqual(total, subtreecount.oracle_count(t, k).eval_counts())
                self.assertEqual(containing,
                                 subtreecount.oracle_count(t, k, "subtree", (root,)).eval_counts())

    def test_without_the_library_it_exits_nonzero_and_prints_nothing(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bc-large", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
