#!/usr/bin/env python3
"""Attribution self-check for the D-Watch benchmark.

    python3 perfbench/test_attribution.py

Runs room_walk with and without a fixed busy-wait that the benchmark injects
around its calls into one layer (--inject LAYER:MICROS), and checks that
the injected time shows up where it was put:

  * in that layer's traced time (rfid.decode_us per report, serve.ingest_us
    per zone-epoch, core.track_us per Kalman step), and not in core.*;
  * in fix_latency_p50_ms of the untraced run, for the layers that sit on
    the fix path (rfid and serve), and not for the Kalman step, which runs
    after the fix.

A deliberately slowed layer that the trace failed to attribute, or that
the end-to-end latency failed to show, makes the script exit 1. Run it
from the root of the checkout; it builds through run.py.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = "11"
SECONDS = "3"
REPORTS_PER_EPOCH = 24  # 4 arrays x ceil(21 tags / 4 tags per report)
# Injected microseconds per call, and the calls per zone-epoch.
CASES = [
    ("rfid", 300.0, "rfid.decode_us", 1, REPORTS_PER_EPOCH),
    ("serve", 150.0, "serve.ingest_us", REPORTS_PER_EPOCH + 2,
     REPORTS_PER_EPOCH + 2),
    ("track", 3000.0, "core.track_us", 1, 0),
]


def run(trace, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", "room_walk", "--seed", SEED, "--seconds", SECONDS,
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"benchmark run failed: {' '.join(cmd)}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    base_traced = run(1)
    base = run(0)
    for layer, micros, metric, calls_in_metric, calls_on_path in CASES:
        traced = run(1, f"{layer}:{micros:g}")
        untraced = run(0, f"{layer}:{micros:g}")

        want = micros * calls_in_metric
        got = traced[metric] - base_traced[metric]
        check(0.8 * want <= got <= 1.5 * want + 20.0,
              f"{layer}: {metric} rose by {got:.1f} us, injected {want:.0f}")
        for other in ("core.localize_ms_p50", "core.observe_ms_per_epoch"):
            rise = traced[other] / base_traced[other] - 1.0
            check(rise < 0.3,
                  f"{layer}: {other} moved by {100 * rise:+.1f}% (not its layer)")

        want_ms = micros * calls_on_path / 1e3
        got_ms = untraced["fix_latency_p50_ms"] - base["fix_latency_p50_ms"]
        if calls_on_path:
            check(0.7 * want_ms <= got_ms <= 1.5 * want_ms + 1.0,
                  f"{layer}: fix_latency_p50_ms rose by {got_ms:.2f} ms, "
                  f"injected {want_ms:.2f} ms on the fix path")
        else:
            check(got_ms < 0.25 * base["fix_latency_p50_ms"],
                  f"{layer}: fix_latency_p50_ms moved by {got_ms:+.2f} ms "
                  f"(the step runs after the fix)")
    if failures:
        print(f"{len(failures)} attribution check(s) failed")
        sys.exit(1)
    print("attribution self-check passed")


if __name__ == "__main__":
    main()
