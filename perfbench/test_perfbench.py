#!/usr/bin/env python3
"""Tests of the benchmark itself: the answer gate, the compare verdicts and
refusals, and run.py's refusal to run without sources or on another
checkout's build tree.

    python3 perfbench/test_perfbench.py

Builds cflbench like run.py does (into $CARGO_TARGET_DIR or .bench_build).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402


class AnswerGateTest(unittest.TestCase):
    """A corrupted reference count must make every workload fail."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.out = os.path.relpath(os.path.join(run.build_dir(), "runs"),
                                  run.ROOT)
        os.makedirs(os.path.join(run.ROOT, cls.out), exist_ok=True)

    def drive(self, workload, *extra):
        r = subprocess.run(
            [self.binary, "--workload", workload, "--seed", "5",
             "--seconds", "2", "--trace", "0", "--out-dir", self.out,
             *extra],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        return r.returncode, json.loads(r.stdout.strip().splitlines()[-1])

    def test_corrupted_reference_fails(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, report = self.drive(workload, "--corrupt-reference")
                self.assertEqual(code, 1)
                self.assertGreater(report["failed"], 0)

    def test_clean_run_passes(self):
        code, report = self.drive("serve_churn")
        self.assertEqual(code, 0, report["failures"])
        self.assertEqual(report["failed"], 0)
        self.assertGreater(report["attempted"], 0)


def record(workload, value, host="cpu-a", tree="t1"):
    return {"fingerprint": {"cpu_model": host, "isa": "avx2", "nproc": 4,
                            "compiler": "GNU-12", "build_type": "Rel",
                            "cfl_stats": "ON", "src_sha256": tree},
            "workload": workload, "seed": 0, "trace": 0, "correct": True,
            "metrics": {"queries_per_s": value}}


class CompareTest(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "queries_per_s", "unit": "1/s",
                            "better": "higher", "bound": 0.1}]}

    def test_refuses_different_hosts(self):
        a = [record("w", 10.0)]
        b = [record("w", 10.0, host="cpu-b")]
        self.assertEqual(compare.report(a, b, self.SPEC), 2)

    def test_refuses_mixed_source_trees(self):
        a = [record("w", 10.0), record("w", 10.0, tree="t2")]
        b = [record("w", 10.0, tree="t3"), record("w", 10.0, tree="t3")]
        self.assertEqual(compare.report(a, b, self.SPEC), 2)

    def test_verdicts(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(
            compare.verdict(base, [x * 1.2 for x in base], "higher", 0.1),
            "improved")
        self.assertEqual(
            compare.verdict(base, [x * 0.8 for x in base], "higher", 0.1),
            "regressed")
        self.assertEqual(
            compare.verdict(base, [x * 1.01 for x in base], "higher", 0.1),
            "no worse")
        noisy = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
        self.assertEqual(compare.verdict(base, noisy, "higher", 0.1),
                         "unresolved")
        # Too few pairs never show a gain.
        self.assertEqual(
            compare.verdict(base[:3], [x * 1.2 for x in base[:3]], "higher",
                            0.1),
            "no worse")
        # Lower is better: a 20% rise in latency regresses.
        self.assertEqual(
            compare.verdict(base, [x * 1.2 for x in base], "lower", 0.1),
            "regressed")


class IsolationTest(unittest.TestCase):
    def test_refuses_foreign_build_tree(self):
        """A build tree configured from another checkout is not reused."""
        tmp = os.path.join(run.build_dir(), "foreign")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        with open(os.path.join(tmp, "CMakeCache.txt"), "w") as f:
            f.write("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n"
                    % os.path.join(tmp, "elsewhere", "perfbench"))
        env = dict(os.environ, CARGO_TARGET_DIR=tmp)
        r = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "enum_deep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=60, env=env)
        shutil.rmtree(tmp, ignore_errors=True)
        self.assertEqual(r.returncode, 3)
        self.assertIn("configured from", r.stderr)
        self.assertNotIn('"correct"', r.stdout)

    def test_fails_without_sources(self):
        """With only BENCHMARK.json and perfbench/, run.py must fail."""
        tmp = os.path.join(run.build_dir(), "isolated")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        r = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "enum_deep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170, env=env)
        shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
