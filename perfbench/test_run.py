#!/usr/bin/env python3
"""Tests of the benchmark's own bookkeeping (run.py), with fake driver
processes in place of the simulator. They need no build.

    python3 perfbench/test_run.py
"""

import json
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

PY = sys.executable


def fake(code, offered=10, doc=None):
    """argv of a child that says it offers @offered requests, prints
    @doc when given, and exits with @code."""
    body = "import json, sys\n"
    if offered is not None:
        body += f"print(json.dumps({{'offered': {offered}}}), flush=True)\n"
    if doc is not None:
        body += f"print(json.dumps({doc!r}), flush=True)\n"
    body += f"sys.exit({code})\n"
    return [PY, "-c", body]


def composed_doc(**over):
    doc = {"past_schedules": 0, "drained": True, "completed": 10,
           "measured": 7, "expected": 7, "warmup_counted": 0,
           "sub_staged": 0, "sub_completed": 0}
    doc.update(over)
    return doc


class ChildTest(unittest.TestCase):
    def test_nonzero_exit_counts_every_offered_request_failed(self):
        r = run.Run("closed_rw")
        dead = r.add(run.run_child(fake(1), 10))
        self.assertFalse(dead.ok)
        self.assertEqual(dead.code, 1)
        self.assertEqual(dead.offered, 10)
        self.assertEqual(r.attempted(), 10)
        self.assertEqual(r.completed(), 0)

    def test_death_does_not_abort_the_run(self):
        r = run.Run("closed_rw")
        r.add(run.run_child(fake(1), 10))
        r.add(run.run_child(fake(0, doc={"wall_s": 1.0}), 10))
        self.assertEqual(r.attempted(), 20)
        self.assertEqual(r.completed(), 10)

    def test_child_killed_by_a_signal_is_dead(self):
        argv = [PY, "-c", "import os; print('{\"offered\": 5}', "
                "flush=True); os.abort()"]
        c = run.run_child(argv, 10)
        self.assertFalse(c.ok)
        self.assertLess(c.code, 0)
        self.assertEqual(c.offered, 5)

    def test_child_that_dies_before_saying_counts_like_its_siblings(self):
        r = run.Run("closed_rw")
        r.add(run.run_child(fake(0, offered=8, doc={"wall_s": 1.0}), 10))
        r.add(run.run_child(fake(3, offered=None), 10))
        self.assertEqual(r.attempted(), 16)
        self.assertEqual(r.completed(), 8)

    def test_hung_child_is_killed_at_its_timeout(self):
        t0 = time.monotonic()
        c = run.run_child([PY, "-c", "import time; time.sleep(60)"], 1.0)
        self.assertLess(time.monotonic() - t0, 30)
        self.assertFalse(c.ok)

    def test_peak_rss_is_the_childs_own(self):
        c = run.run_child(fake(0, doc={"wall_s": 1.0}), 10)
        self.assertTrue(c.ok)
        self.assertGreater(c.maxrss_kb, 0)

    def test_setup_only_children_run_no_requests(self):
        r = run.Run("closed_rw")
        r.add(run.run_child(fake(1), 10), runs_requests=False)
        self.assertEqual(r.attempted(), 0)


class WholeRunTest(unittest.TestCase):
    def setUp(self):
        self.saved = run.driver_argv

    def tearDown(self):
        run.driver_argv = self.saved

    def test_run_whose_children_all_die_reports_every_request_failed(self):
        run.driver_argv = lambda mode, workload, seed: fake(1)
        r, metrics, ref = run.measure_end_to_end(
            "fleet_striped", 0, 0.0, time.monotonic() + 60)
        self.assertIsNone(ref)
        self.assertEqual(metrics["io_done_ratio"], 0.0)
        self.assertEqual(r.attempted(), 10 * (1 + run.MIN_ROUNDS))
        self.assertEqual(r.completed(), 0)


class CheckTest(unittest.TestCase):
    def checked(self, workload, doc, offered=10):
        r = run.Run(workload)
        run.check_composed(r, run.Child(offered, doc, 0, 1))
        return r

    def test_clean_run_passes(self):
        r = self.checked("replay_cache", composed_doc())
        self.assertTrue(r.correct())
        self.assertEqual(set(r.checks.values()), {"pass"})

    def test_closed_loop_warmup_counting_is_a_known_defect(self):
        r = self.checked("closed_rw",
                         composed_doc(measured=9, warmup_counted=2))
        self.assertEqual(r.checks["measured_count"], "known-defect")
        self.assertTrue(r.correct())

    def test_warmup_counting_elsewhere_fails(self):
        r = self.checked("replay_cache",
                         composed_doc(measured=9, warmup_counted=2))
        self.assertEqual(r.checks["measured_count"], "fail")
        self.assertFalse(r.correct())

    def test_any_other_count_fails(self):
        r = self.checked("closed_rw",
                         composed_doc(measured=8, warmup_counted=2))
        self.assertEqual(r.checks["measured_count"], "fail")

    def test_undrained_device_fails(self):
        self.assertFalse(self.checked("closed_rw",
                                      composed_doc(drained=False)).correct())
        self.assertFalse(self.checked("closed_rw",
                                      composed_doc(completed=9)).correct())

    def test_past_schedules_fail(self):
        self.assertFalse(self.checked(
            "closed_rw", composed_doc(past_schedules=1)).correct())

    def test_fleet_sub_request_conservation(self):
        r = self.checked("fleet_striped",
                         composed_doc(sub_staged=5, sub_completed=4))
        self.assertEqual(r.checks["fleet_sub_requests"], "fail")

    def test_untraced_digest_must_match_the_composed_run(self):
        r = run.Run("closed_rw")
        ref = {"digest": "a", "measured": 7}
        same = {"digest": "a", "measured": 7, "past_schedules": 0}
        run.check_untraced(r, run.Child(10, same, 0, 1), ref)
        self.assertTrue(r.correct())
        other = dict(same, digest="b")
        run.check_untraced(r, run.Child(10, other, 0, 1), ref)
        self.assertFalse(r.correct())


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match_run_py(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
