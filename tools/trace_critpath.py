#!/usr/bin/env python3
"""Attribute fleet makespan from saclo-serve trace artifacts, offline.

`saclo-serve --analyze` prints this attribution live; this tool produces
the same breakdown from the archived artifacts (`--trace-out` /
`--events-out`), so a CI run or a colleague's tarball can be analyzed
without replaying anything:

  trace_critpath.py trace.json [--events events.jsonl] [--top N]

From the merged Chrome trace (pid = device, complete "X" events with
cat kernel / memcpy_h2d / memcpy_d2h / host) it reports, per device,
the busy interval-union (overlapping streams counted once), the split
across categories (each a union too, so none exceeds busy), and idle
time against the fleet makespan. Kernel
spans are classified by route the same way the runtime does: GASPARD's
chain names its kernels KRN_*, everything else is SaC. The event log
adds what the trace alone cannot show: queue wait (job_admitted ->
first job_dispatched, real time) and preemption / failover / drain
stalls.

A missing or malformed artifact is a one-line error and exit 1, never
a traceback.
"""

import argparse
import json
import sys
from collections import defaultdict


class CritPathError(Exception):
    """A diagnosable input problem: reported as one line, exit 1."""


SPAN_CATEGORIES = ("kernel", "memcpy_h2d", "memcpy_d2h", "host")


def route_of_kernel(name):
    """GASPARD's chain names every kernel KRN_*; all else is SaC."""
    return "gaspard" if name.startswith("KRN_") else "sac"


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise CritPathError(f"cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise CritPathError(
            f"{path}: malformed {what} ({e.msg} at line {e.lineno} column {e.colno})")


def load_spans(path):
    """The X events of a merged Chrome trace, grouped by device (pid)."""
    data = load_json(path, "trace JSON")
    events = data.get("traceEvents") if isinstance(data, dict) else None
    if not isinstance(events, list):
        raise CritPathError(f"{path}: not a Chrome trace (no 'traceEvents' list)")
    spans = []
    for e in events:
        if not isinstance(e, dict) or e.get("ph") != "X":
            continue
        try:
            spans.append({
                "device": int(e.get("pid", 0)),
                "name": str(e.get("name", "?")),
                "cat": str(e.get("cat", "?")),
                "start": float(e["ts"]),
                "end": float(e["ts"]) + float(e["dur"]),
            })
        except (KeyError, TypeError, ValueError):
            raise CritPathError(f"{path}: X event without numeric ts/dur: {e}")
    if not spans:
        raise CritPathError(f"{path}: trace has no complete (ph=X) spans to attribute")
    return spans


def load_events(path):
    """events.jsonl records, skipping blank lines."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise CritPathError(f"cannot read {path}: {e.strerror or e}")
    records = []
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise CritPathError(f"{path}:{i}: malformed event line ({e.msg})")
    return records


def union_us(intervals):
    """Total covered time of possibly-overlapping [start, end) intervals."""
    total = 0.0
    end_max = None
    for start, end in sorted(intervals):
        if end_max is None or start > end_max:
            total += end - start
            end_max = end
        elif end > end_max:
            total += end - end_max
            end_max = end
    return total


def analyze(spans, events):
    devices = sorted(set(s["device"] for s in spans))
    t0 = min(s["start"] for s in spans)
    t1 = max(s["end"] for s in spans)
    makespan = t1 - t0

    per_device = {}
    stages = defaultdict(lambda: [0, 0.0])   # name -> [calls, us]
    routes = defaultdict(lambda: [0, 0.0])   # route -> [spans, us]
    for dev in devices:
        dev_spans = [s for s in spans if s["device"] == dev]
        row = {"device": dev, "busy": union_us([(s["start"], s["end"]) for s in dev_spans]),
               "stalls": defaultdict(int)}
        for cat in SPAN_CATEGORIES:
            row[cat] = union_us([(s["start"], s["end"]) for s in dev_spans if s["cat"] == cat])
        per_device[dev] = row
    for s in spans:
        entry = stages[(s["name"], s["cat"])]
        entry[0] += 1
        entry[1] += s["end"] - s["start"]
        if s["cat"] == "kernel":
            r = routes[route_of_kernel(s["name"])]
            r[0] += 1
            r[1] += s["end"] - s["start"]

    # Queue wait and stall counters come from the event log: admitted ->
    # first dispatch is real time the job spent waiting for a device.
    admitted, dispatched = {}, {}
    stall_names = {"job_preempted": "preempt", "device_fault": "fault",
                   "drain_started": "drain", "job_failover": "failover"}
    fleet_stalls = defaultdict(int)
    for e in events:
        kind = e.get("event")
        job = e.get("job")
        if kind == "job_admitted" and job is not None:
            admitted.setdefault(job, float(e.get("t_real_us", 0.0)))
        elif kind == "job_dispatched" and job is not None:
            dispatched.setdefault(job, float(e.get("t_real_us", 0.0)))
        elif kind in stall_names:
            fleet_stalls[stall_names[kind]] += 1
            dev = e.get("device", -1)
            if dev in per_device:
                per_device[dev]["stalls"][stall_names[kind]] += 1
    waits = [dispatched[j] - admitted[j] for j in admitted
             if j in dispatched and dispatched[j] >= admitted[j]]

    return {
        "makespan_us": makespan,
        "devices": [per_device[d] for d in devices],
        "stages": sorted(
            ({"name": n, "cat": c, "calls": v[0], "us": v[1]}
             for (n, c), v in stages.items()),
            key=lambda s: -s["us"]),
        "routes": sorted(
            ({"route": r, "spans": v[0], "us": v[1]} for r, v in routes.items()),
            key=lambda r: -r["us"]),
        "waits": waits,
        "stalls": fleet_stalls,
    }


def pct(part, whole):
    return f"{100.0 * part / whole:.1f}%" if whole > 0 else "-"


def report(result, top):
    out = [f"critical path — fleet makespan {result['makespan_us']:.1f} us", ""]
    header = ["device", "busy", "kernel", "h2d", "d2h", "host", "idle",
              "stalls (preempt/fault/drain)"]
    rows = [header]
    for d in result["devices"]:
        span = result["makespan_us"]
        idle = max(0.0, span - d["busy"])
        st = d["stalls"]
        rows.append([f"gpu{d['device']}", pct(d["busy"], span),
                     pct(d["kernel"], span), pct(d["memcpy_h2d"], span),
                     pct(d["memcpy_d2h"], span), pct(d["host"], span),
                     pct(idle, span),
                     f"{st['preempt']}/{st['fault']}/{st['drain']}"])
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())

    waits = result["waits"]
    out.append("")
    if waits:
        out.append(f"queue wait (real): {len(waits)} jobs, "
                   f"total {sum(waits):.1f} us, "
                   f"mean {sum(waits) / len(waits):.1f} us, "
                   f"max {max(waits):.1f} us")
    else:
        out.append("queue wait: no admitted->dispatched pairs "
                   "(run with --events-out and pass --events)")
    st = result["stalls"]
    out.append(f"stalls: {st['preempt']} preemptions, {st['failover']} failovers, "
               f"{st['drain']} drains")

    if result["routes"]:
        out.append("")
        out.append("routes (kernel time):")
        for r in result["routes"]:
            out.append(f"  {r['route']:<9} {r['us']:.1f} us over {r['spans']} spans")

    out.append("")
    out.append(f"top stages (of {len(result['stages'])}):")
    total_busy = sum(d["busy"] for d in result["devices"])
    srows = [["stage", "cat", "calls", "total us", "% busy"]]
    for s in result["stages"][:top]:
        srows.append([s["name"], s["cat"], str(s["calls"]), f"{s['us']:.1f}",
                      pct(s["us"], total_busy)])
    widths = [max(len(r[i]) for r in srows) for i in range(5)]
    for r in srows:
        out.append("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


def main():
    parser = argparse.ArgumentParser(
        description="Attribute fleet makespan from saclo-serve trace artifacts.")
    parser.add_argument("trace", help="merged Chrome trace (saclo-serve --trace-out)")
    parser.add_argument("--events", help="event log (saclo-serve --events-out) for "
                                         "queue-wait and stall attribution")
    parser.add_argument("--top", type=int, default=10,
                        help="stages to list (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit the attribution as JSON instead of the table")
    args = parser.parse_args()
    if args.top < 1:
        raise CritPathError(f"--top must be >= 1, got {args.top}")

    spans = load_spans(args.trace)
    events = load_events(args.events) if args.events else []
    result = analyze(spans, events)
    if args.json:
        result["stalls"] = dict(result["stalls"])
        for d in result["devices"]:
            d["stalls"] = dict(d["stalls"])
        print(json.dumps(result, indent=2))
    else:
        print(report(result, args.top), end="")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CritPathError as e:
        print(f"trace_critpath: error: {e}", file=sys.stderr)
        sys.exit(1)
