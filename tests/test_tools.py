#!/usr/bin/env python3
"""Self-tests for tools/bench_compare.py and tools/trace_check.py.

Each case runs a tool on the fixtures in tests/data/ and checks its exit
status and diagnostics, proving that the comparer's regression and
missing-entry gates and trace_check's structure, required-span and stats
format checks still fire.

Usage:
    python3 tests/test_tools.py [TestClass.test_name ...]
"""

import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def data(name):
    return os.path.join(ROOT, "tests", "data", name)


def run_tool(tool, *args):
    """(exit status, stdout + stderr) of tools/TOOL run with ARGS."""
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", tool), *args],
        capture_output=True, text=True, check=False)
    return result.returncode, result.stdout + result.stderr


class BenchCompare(unittest.TestCase):
    def test_identical_pair_passes(self):
        status, output = run_tool("bench_compare.py",
                                  data("bench_baseline.json"),
                                  data("bench_baseline.json"))
        self.assertEqual(status, 0, output)
        self.assertIn("no regressions above 10%", output)

    def test_doubled_seconds_per_call_fails_naming_entry(self):
        status, output = run_tool("bench_compare.py",
                                  data("bench_baseline.json"),
                                  data("bench_slower.json"))
        self.assertEqual(status, 1, output)
        self.assertIn("results compressed_add 256x256 65536: 2.00x slower",
                      output)

    def test_missing_entry_fails_naming_entry(self):
        status, output = run_tool("bench_compare.py",
                                  data("bench_baseline.json"),
                                  data("bench_missing.json"))
        self.assertEqual(status, 1, output)
        self.assertIn("missing from the candidate:\n"
                      "  cache roi_read full 256x256 576", output)


class TraceCheck(unittest.TestCase):
    def test_sound_trace_and_stats_pass(self):
        status, output = run_tool("trace_check.py", data("trace_ok.json"),
                                  "--require-span", "codec.stage.transform",
                                  "--stats", data("stats_ok.json"))
        self.assertEqual(status, 0, output)

    def test_unbalanced_trace_fails(self):
        status, output = run_tool("trace_check.py",
                                  data("trace_unbalanced.json"))
        self.assertEqual(status, 1, output)
        self.assertIn("unclosed span", output)

    def test_missing_required_span_fails(self):
        status, output = run_tool("trace_check.py", data("trace_ok.json"),
                                  "--require-span", "cache.lookup")
        self.assertEqual(status, 1, output)
        self.assertIn("required span 'cache.lookup' never appears", output)

    def test_sampled_histogram_without_quantiles_fails(self):
        status, output = run_tool("trace_check.py", data("trace_ok.json"),
                                  "--stats", data("stats_no_quantiles.json"))
        self.assertEqual(status, 1, output)
        self.assertIn("'sched.region.queue_wait_ns' has samples but no p99",
                      output)


if __name__ == "__main__":
    unittest.main()
