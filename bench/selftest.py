"""Tests of the benchmark itself.  Run from the repository root:

    python3 bench/selftest.py

The file name keeps it out of the repository's pytest collection; one
test runs a whole `constructions` pass, about five seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import one_pass  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class InputsTest(unittest.TestCase):
    INPUTS = {
        "wordproblem": gen.wordproblem_inputs,
        "homology": gen.homology_inputs,
        "constructions": gen.constructions_inputs,
    }

    def test_same_seed_same_inputs(self):
        for name, make in self.INPUTS.items():
            self.assertEqual(make(7), make(7), name)

    def test_different_seeds_different_inputs(self):
        for name, make in self.INPUTS.items():
            self.assertNotEqual(make(7), make(8), name)


class ChecksTest(unittest.TestCase):
    """The output checks reject wrong outputs, not only accept right ones."""

    def test_normalize_rejects_a_wrong_normal_form(self):
        spec = gen.wordproblem_inputs(3)["normalize"][1]
        right = workloads.cli("normalize", "--bs", f"{spec['m']},{spec['n']}", gen.fmt(spec["word"]))
        workloads._check_normalize(spec, right)
        for wrong in ("a " + right, "t^-1 a^2 t\n", "1\n"):
            with self.assertRaises(workloads.CheckFailed):
                workloads._check_normalize(spec, wrong)

    def test_certify_rejects_a_wrong_homomorphism(self):
        spec = gen.wordproblem_inputs(3)["certify"][1]
        with self.assertRaises(workloads.CheckFailed):
            workloads._check_certify(spec, "hom a: () b: ()\n")

    def test_homology_rejects_wrong_groups(self):
        spec = gen.homology_inputs(3)[5]
        path = os.path.join(one_pass.WORK_ROOT, "selftest.grp")
        os.makedirs(one_pass.WORK_ROOT, exist_ok=True)
        try:
            workloads.write(path, spec["text"])
            sc_text, (h0, h1, h2) = workloads._run_small_homology(path, path + ".sc")
        finally:
            for p in (path, path + ".sc"):
                if os.path.exists(p):
                    os.remove(p)
        workloads._check_homology(spec["text"], sc_text, (h0, h1, h2))
        bigger = workloads.gpforge.homology.AbelianGroup(h1.rank + 1)
        with self.assertRaises(workloads.CheckFailed):
            workloads._check_homology(spec["text"], sc_text, (h0, bigger, h2))


class DigestTest(unittest.TestCase):
    def test_corrupted_digest_fails_exactly_that_job(self):
        expected = workloads.load_digests("constructions")
        victim = sorted(expected)[0]
        expected[victim] = "0" * 16
        result = one_pass.run_pass("constructions", gen.DEFAULT_SEED, False, expected)
        self.assertEqual([f[0] for f in result["failures"]], [victim])
        self.assertGreater(len(result["failures"]) / result["attempted"], 0)

    def test_digests_cover_the_default_seed_jobs(self):
        for workload in gen.WORKLOADS:
            built = workloads.JOB_BUILDERS[workload]
            workdir = os.path.join(one_pass.WORK_ROOT, "selftest-ids")
            os.makedirs(workdir, exist_ok=True)
            try:
                ids = {job.id for job in built(gen.DEFAULT_SEED, workdir)}
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            self.assertEqual(ids, set(workloads.load_digests(workload)), workload)


class SpeedTest(unittest.TestCase):
    def test_correction_uses_the_reference_units_near_each_job(self):
        reference = speed.Reference()
        slow, fast = 2 * speed.NOMINAL_S, speed.NOMINAL_S
        reference.units = [(0.0, slow), (3.5, slow), (50.0, fast)]
        one_s_slow, half_s_fast = reference.corrected([(1.0, 2.0), (49.0, 49.5)])
        self.assertAlmostEqual(one_s_slow, 0.5)
        self.assertAlmostEqual(half_s_fast, 0.5)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_emitted_metric(self):
        with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(spans.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(gen.WORKLOADS))

    def test_fails_without_a_result_outside_a_checkout(self):
        bare = os.path.abspath(os.path.join(one_pass.WORK_ROOT, "selftest-bare"))
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "homology", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
