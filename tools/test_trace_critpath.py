#!/usr/bin/env python3
"""Tests for trace_critpath.py — the offline makespan attributor.

Plain unittest (no pytest in the image), registered with ctest. The
fixtures are tiny hand-built Chrome traces, so every number in the
attribution is checkable by eye: interval-union busy time (overlapping
streams counted once), route classification (KRN_* -> gaspard), queue
wait from the event log, and the typed error paths.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trace_critpath  # noqa: E402


def span(pid, name, cat, ts, dur):
    return {"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": 1,
            "ts": ts, "dur": dur, "args": {}}


class UnionTest(unittest.TestCase):
    def test_disjoint(self):
        self.assertEqual(trace_critpath.union_us([(0, 10), (20, 30)]), 20)

    def test_overlap_counted_once(self):
        self.assertEqual(trace_critpath.union_us([(0, 10), (5, 15)]), 15)

    def test_nested(self):
        self.assertEqual(trace_critpath.union_us([(0, 100), (10, 20)]), 100)

    def test_empty(self):
        self.assertEqual(trace_critpath.union_us([]), 0.0)


class RouteTest(unittest.TestCase):
    def test_gaspard_kernels_are_krn_prefixed(self):
        self.assertEqual(trace_critpath.route_of_kernel("KRN_hfilter"), "gaspard")
        self.assertEqual(trace_critpath.route_of_kernel("hfilter_generic_w0_g0"), "sac")


class AnalyzeTest(unittest.TestCase):
    def test_attribution_numbers(self):
        spans = [
            span(0, "k0", "kernel", 0, 100),
            span(0, "memcpyHtoDasync", "memcpy_h2d", 100, 50),
            # Overlapping stream on the same device: busy union, not sum.
            span(0, "k0", "kernel", 50, 100),
            span(1, "KRN_stage", "kernel", 0, 200),
        ]
        parsed = [{"device": s["pid"], "name": s["name"], "cat": s["cat"],
                   "start": s["ts"], "end": s["ts"] + s["dur"]} for s in spans]
        result = trace_critpath.analyze(parsed, [])
        self.assertEqual(result["makespan_us"], 200)
        dev0 = result["devices"][0]
        self.assertEqual(dev0["busy"], 150)        # [0,150) union
        self.assertEqual(dev0["kernel"], 150)      # per-category union, not sum
        self.assertEqual(dev0["memcpy_h2d"], 50)
        routes = {r["route"]: r for r in result["routes"]}
        self.assertEqual(routes["sac"]["us"], 200)
        self.assertEqual(routes["gaspard"]["us"], 200)

    def test_overlapping_h2d_streams_stay_within_busy(self):
        # Two uploads on different streams cover the same 100 us, then a
        # kernel runs: h2d is their union, not their 200 us sum.
        parsed = [
            {"device": 0, "name": "up_a", "cat": "memcpy_h2d", "start": 0, "end": 100},
            {"device": 0, "name": "up_b", "cat": "memcpy_h2d", "start": 0, "end": 100},
            {"device": 0, "name": "k", "cat": "kernel", "start": 100, "end": 150},
        ]
        dev0 = trace_critpath.analyze(parsed, [])["devices"][0]
        self.assertEqual(dev0["busy"], 150)
        self.assertEqual(dev0["memcpy_h2d"], 100)
        self.assertEqual(dev0["kernel"], 50)

    def test_queue_wait_and_stalls_from_events(self):
        parsed = [{"device": 0, "name": "k", "cat": "kernel", "start": 0, "end": 10}]
        events = [
            {"event": "job_admitted", "job": 1, "t_real_us": 100.0},
            {"event": "job_dispatched", "job": 1, "t_real_us": 400.0},
            # Redispatch after failover: only the FIRST dispatch counts.
            {"event": "job_dispatched", "job": 1, "t_real_us": 900.0},
            {"event": "job_preempted", "job": 1, "device": 0},
            {"event": "device_fault", "job": 1, "device": 0},
            {"event": "drain_started", "job": 0, "device": 0},
            # Dispatched with no admission record: ignored, not a crash.
            {"event": "job_dispatched", "job": 7, "t_real_us": 5.0},
        ]
        result = trace_critpath.analyze(parsed, events)
        self.assertEqual(result["waits"], [300.0])
        self.assertEqual(result["stalls"]["preempt"], 1)
        self.assertEqual(result["stalls"]["fault"], 1)
        self.assertEqual(result["stalls"]["drain"], 1)
        self.assertEqual(result["devices"][0]["stalls"]["preempt"], 1)

    def test_report_renders(self):
        parsed = [{"device": 0, "name": "KRN_a", "cat": "kernel", "start": 0, "end": 10}]
        text = trace_critpath.report(trace_critpath.analyze(parsed, []), top=5)
        self.assertIn("critical path", text)
        self.assertIn("gpu0", text)
        self.assertIn("gaspard", text)


class LoadTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def test_loads_x_events_only(self):
        trace = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 0, "args": {}},
            span(0, "k", "kernel", 1.5, 2.5),
        ]}
        with open(self.path("t.json"), "w") as f:
            json.dump(trace, f)
        spans = trace_critpath.load_spans(self.path("t.json"))
        self.assertEqual(len(spans), 1)
        self.assertEqual(spans[0]["start"], 1.5)
        self.assertEqual(spans[0]["end"], 4.0)

    def test_missing_trace_is_typed_error(self):
        with self.assertRaises(trace_critpath.CritPathError):
            trace_critpath.load_spans(self.path("absent.json"))

    def test_not_a_trace_is_typed_error(self):
        with open(self.path("t.json"), "w") as f:
            json.dump({"foo": 1}, f)
        with self.assertRaises(trace_critpath.CritPathError):
            trace_critpath.load_spans(self.path("t.json"))

    def test_trace_with_no_spans_is_typed_error(self):
        with open(self.path("t.json"), "w") as f:
            json.dump({"traceEvents": []}, f)
        with self.assertRaises(trace_critpath.CritPathError):
            trace_critpath.load_spans(self.path("t.json"))

    def test_malformed_event_line_is_typed_error(self):
        with open(self.path("e.jsonl"), "w") as f:
            f.write('{"event":"job_admitted","job":1}\n{broken\n')
        with self.assertRaises(trace_critpath.CritPathError) as ctx:
            trace_critpath.load_events(self.path("e.jsonl"))
        self.assertIn(":2:", str(ctx.exception))

    def test_blank_lines_in_event_log_are_skipped(self):
        with open(self.path("e.jsonl"), "w") as f:
            f.write('{"event":"job_admitted","job":1}\n\n')
        self.assertEqual(len(trace_critpath.load_events(self.path("e.jsonl"))), 1)


if __name__ == "__main__":
    unittest.main()
