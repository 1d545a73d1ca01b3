#!/usr/bin/env python3
"""Unit tests for scripts/bench_diff.py — the CI perf-regression gate.

The gate's failure modes matter as much as its happy path: a missing
previous run, an artifact a SIGKILLed bench truncated, or a bench that
predates a tracked metric must all pass (warn-and-skip), while a genuine
regression beyond tolerance must fail. Run directly or via CTest
(scripts_test_bench_diff); stdlib unittest only.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import bench_diff  # noqa: E402


def run_diff(argv):
    """bench_diff.main() under argv, returning (exit_code, stdout+stderr)."""
    out = io.StringIO()
    old_argv = sys.argv
    sys.argv = ["bench_diff.py"] + argv
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = bench_diff.main()
    finally:
        sys.argv = old_argv
    return code, out.getvalue()


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.root = pathlib.Path(self._tmp.name)
        self.current = self.root / "current"
        self.previous = self.root / "previous"
        self.current.mkdir()
        self.previous.mkdir()

    def write_artifact(self, directory, name, speedup):
        path = directory / f"BENCH_{name}.json"
        path.write_text(json.dumps({"parallel_speedup": speedup}) + "\n")
        return path

    def diff(self, tolerance=0.15, previous=True):
        argv = ["--current", str(self.current), "--tolerance", str(tolerance)]
        if previous:
            argv += ["--previous", str(self.previous)]
        return run_diff(argv)

    # ---- regression detection ----

    def test_regression_beyond_tolerance_fails(self):
        self.write_artifact(self.previous, "pool", 4.0)
        self.write_artifact(self.current, "pool", 3.0)  # -25% at 15% tolerance
        code, out = self.diff()
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_within_tolerance_passes(self):
        self.write_artifact(self.previous, "pool", 4.0)
        self.write_artifact(self.current, "pool", 3.6)  # -10%
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("within tolerance", out)

    def test_improvement_passes(self):
        self.write_artifact(self.previous, "pool", 4.0)
        self.write_artifact(self.current, "pool", 5.0)
        code, _ = self.diff()
        self.assertEqual(code, 0)

    def test_tolerance_is_configurable(self):
        self.write_artifact(self.previous, "pool", 4.0)
        self.write_artifact(self.current, "pool", 3.6)  # -10%
        code, _ = self.diff(tolerance=0.05)
        self.assertEqual(code, 1)

    # ---- missing-artifact tolerance ----

    def test_no_previous_dir_passes(self):
        self.write_artifact(self.current, "pool", 4.0)
        code, out = self.diff(previous=False)
        self.assertEqual(code, 0)
        self.assertIn("nothing to compare", out)

    def test_previous_dir_path_missing_passes(self):
        self.write_artifact(self.current, "pool", 4.0)
        code, _ = run_diff(["--current", str(self.current),
                            "--previous", str(self.root / "nonexistent")])
        self.assertEqual(code, 0)

    def test_missing_previous_artifact_skipped(self):
        self.write_artifact(self.previous, "pool", 4.0)
        self.write_artifact(self.current, "pool", 3.0)  # would regress...
        self.write_artifact(self.current, "fresh_bench", 1.0)  # ...new bench ok
        code, out = self.diff()
        self.assertEqual(code, 1)  # pool still gates
        self.assertIn("BENCH_fresh_bench.json: no previous artifact", out)

    def test_empty_current_dir_fails(self):
        # No artifacts at all means the bench step itself broke — that must
        # NOT silently pass.
        code, _ = self.diff()
        self.assertEqual(code, 1)

    def test_metric_absent_previously_skipped(self):
        (self.previous / "BENCH_pool.json").write_text('{"other": 1}\n')
        self.write_artifact(self.current, "pool", 3.0)
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("absent previously", out)

    # ---- corrupt-JSON handling ----

    def test_truncated_previous_json_warns_and_passes(self):
        (self.previous / "BENCH_pool.json").write_text('{"parallel_spee')
        self.write_artifact(self.current, "pool", 3.0)
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("skipping unreadable", out)

    def test_truncated_current_json_warns_and_passes(self):
        self.write_artifact(self.previous, "pool", 4.0)
        (self.current / "BENCH_pool.json").write_text("")
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("skipping unreadable", out)

    def test_non_object_json_warns_and_passes(self):
        (self.previous / "BENCH_pool.json").write_text("[1, 2, 3]\n")
        self.write_artifact(self.current, "pool", 3.0)
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("not an object", out)

    def test_non_numeric_metric_skipped(self):
        (self.current / "BENCH_pool.json").write_text(
            '{"parallel_speedup": "fast"}\n')
        self.write_artifact(self.previous, "pool", 4.0)
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("no tracked metrics", out)

    def test_zero_previous_value_unusable(self):
        self.write_artifact(self.previous, "pool", 0.0)
        self.write_artifact(self.current, "pool", 3.0)
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("unusable", out)

    # ---- the benchmark ledger (scripts/perf_ledger.py) ----

    RATIOS = (("campaign-lens", "lens.overhead_ratio"),
              ("campaign-lens", "core.pool_efficiency"),
              ("window-adversarial", "sim.adversarial_to_splice_windows_ratio"))

    def ledger(self, trials_per_s=500.0, ratio=0.8, splice=True):
        """A ledger shaped like perf_ledger.py's: result lines per trace."""
        def result(metrics):
            return {"correct": True, "attempted": 100, "failed": 0,
                    "metrics": {m: {"value": v, "unit": "x"}
                                for m, v in metrics.items()}}
        doc = {"host": "nproc=4 compiler=\"g++\" build=Release cpu=\"x\""}
        if splice:
            doc["window-splice"] = {
                "trace0": result({"trials_per_s": trials_per_s}),
                "trace1": result({"sim.windows_per_s": 20000.0})}
        for workload, metric in self.RATIOS:
            entry = doc.setdefault(workload, {
                "trace0": result({"trials_per_s": 50.0}),
                "trace1": result({})})
            entry["trace1"]["metrics"][metric] = {"value": ratio, "unit": "x"}
        return doc

    def write_ledger(self, directory, name="BENCH_perfbench.json", **kw):
        path = directory / name
        path.write_text(json.dumps(self.ledger(**kw), indent=2) + "\n")
        return path

    def test_ledger_window_splice_drop_fails(self):
        self.assertIn("window-splice.trace0.trials_per_s", bench_diff.GATED)
        self.assertNotIn("lens_off_windows_per_sec", bench_diff.GATED)
        self.write_ledger(self.previous, trials_per_s=530.0)
        self.write_ledger(self.current, trials_per_s=440.0)  # -17% at 15%
        code, out = self.diff()
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("window-splice.trace0.trials_per_s", out)

    def test_ledger_window_splice_within_tolerance_passes(self):
        self.write_ledger(self.previous, trials_per_s=530.0)
        self.write_ledger(self.current, trials_per_s=480.0)  # -9.4%
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("within tolerance", out)

    def test_ratio_drop_alone_passes_and_is_printed(self):
        # The same-run ratios are printed, never gated: halving all three
        # with the gated rate unchanged must pass.
        self.write_ledger(self.previous, ratio=0.8)
        self.write_ledger(self.current, ratio=0.4)
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertNotIn("REGRESSION", out)
        for workload, metric in self.RATIOS:
            self.assertIn(f"{workload}.trace1.{metric} 0.8000 -> 0.4000 "
                          f"(not gated)", out)

    def test_truncated_ledger_warns_and_is_skipped(self):
        self.write_ledger(self.previous)
        text = json.dumps(self.ledger())
        (self.current / "BENCH_perfbench.json").write_text(text[:len(text) // 2])
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("skipping unreadable", out)

    def test_ledger_without_window_splice_warns_orphaned_gate(self):
        self.write_ledger(self.previous)
        self.write_ledger(self.current, splice=False)
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("WARNING", out)
        self.assertIn("metric removed", out)
        self.assertIn("orphaned keys: window-splice.trace0.trials_per_s", out)

    def test_two_ledger_files_compare_with_each_other(self):
        # The per-change ledgers at the repo root have different names
        # (BENCH_17.json, BENCH_18.json); given as files they still pair.
        prev = self.write_ledger(self.previous, name="BENCH_17.json",
                                 trials_per_s=530.0)
        cur = self.write_ledger(self.current, name="BENCH_18.json",
                                trials_per_s=400.0)
        code, out = run_diff(["--current", str(cur), "--previous", str(prev)])
        self.assertEqual(code, 1)
        self.assertIn("BENCH_18.json: window-splice.trace0.trials_per_s", out)
        code, out = run_diff(["--current", str(prev), "--previous", str(prev)])
        self.assertEqual(code, 0)
        self.assertIn("within tolerance", out)

    # ---- orphaned-gate warnings (rename/removal must not be silent) ----

    def test_removed_metric_warns_loudly(self):
        # The previous artifact tracked a metric the current one lost: a
        # bench rename in disguise. Must warn (listing the key) but exit 0.
        self.write_artifact(self.previous, "pool", 4.0)
        (self.current / "BENCH_pool.json").write_text('{"other": 1}\n')
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("WARNING", out)
        self.assertIn("orphaned", out)
        self.assertIn("parallel_speedup", out)
        self.assertIn("metric removed", out)

    def test_removed_artifact_warns_loudly(self):
        # A whole artifact vanished between runs: every tracked metric it
        # carried is now ungated.
        self.write_artifact(self.previous, "pool", 4.0)
        self.write_artifact(self.previous, "gone_bench", 2.0)
        self.write_artifact(self.current, "pool", 4.0)
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("WARNING", out)
        self.assertIn("BENCH_gone_bench.json", out)
        self.assertIn("artifact removed", out)
        self.assertIn("parallel_speedup", out)

    def test_orphan_warning_lists_every_lost_key(self):
        doc = self.ledger()
        doc["parallel_speedup"] = 4.0
        (self.previous / "BENCH_pool.json").write_text(json.dumps(doc) + "\n")
        (self.current / "BENCH_pool.json").write_text('{"other": 1}\n')
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertIn("parallel_speedup, window-splice.trace0.trials_per_s",
                      out)

    def test_orphan_warning_does_not_mask_regressions(self):
        # Orphans warn, regressions still gate: exit code must stay 1.
        self.write_artifact(self.previous, "pool", 4.0)
        self.write_artifact(self.current, "pool", 3.0)  # -25%
        self.write_artifact(self.previous, "gone_bench", 2.0)
        code, out = self.diff()
        self.assertEqual(code, 1)
        self.assertIn("WARNING", out)
        self.assertIn("REGRESSION", out)

    def test_no_orphans_no_warning(self):
        self.write_artifact(self.previous, "pool", 4.0)
        self.write_artifact(self.current, "pool", 4.1)
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertNotIn("WARNING", out)

    def test_untracked_keys_in_removed_artifact_do_not_warn(self):
        # A vanished artifact that never carried tracked metrics orphans
        # nothing — no warning noise.
        self.write_artifact(self.previous, "pool", 4.0)
        (self.previous / "BENCH_scratch.json").write_text('{"other": 1}\n')
        self.write_artifact(self.current, "pool", 4.0)
        code, out = self.diff()
        self.assertEqual(code, 0)
        self.assertNotIn("WARNING", out)

    def test_both_metrics_gate_independently(self):
        # One artifact can regress parallel_speedup while the ledger
        # regresses the window-splice rate; both must be reported.
        self.write_artifact(self.previous, "pool", 4.0)
        self.write_artifact(self.current, "pool", 3.0)
        self.write_ledger(self.previous, trials_per_s=530.0)
        self.write_ledger(self.current, trials_per_s=400.0)
        code, out = self.diff()
        self.assertEqual(code, 1)
        self.assertIn("2 metric(s) regressed", out)


if __name__ == "__main__":
    unittest.main()
