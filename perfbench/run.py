#!/usr/bin/env python3
"""End-to-end benchmark of the SweepCache simulation stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Builds perfbench.exe from the checkout with dune, runs one workload, checks
every simulated result against perfbench/expected.json, prints a readable
report and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  --record rewrites expected.json from the
current build (the digests of every input a seed can select).  See
README.md for the workloads and the meaning of every metric.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
EXPECTED = os.path.join(HERE, "expected.json")
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ["design-sweep", "design-sweep-workers", "fleet", "long-run"]
# Both design sweeps run the same jobs and must give the same results.
TABLE = {"design-sweep-workers": "design-sweep"}
RUN_TIMEOUT_S = 170
# Recording simulates every input a seed can select, one group at a time;
# long-run alone is about 650 jobs at scale 4.0.
RECORD_TIMEOUT_S = 3600


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    # No shared dune cache and a temporary directory of our own keep the
    # build's writes inside the checkout.
    tmp = os.path.join(STATE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def run_exe(args, timeout=RUN_TIMEOUT_S):
    """Run perfbench.exe in its own process group; return its last JSON line."""
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % timeout, 3)
    finally:
        # Worker processes exit on stdin EOF; make sure none outlives us.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("perfbench.exe exited with %d" % proc.returncode, 3)
    lines = out.strip().splitlines()
    if not lines:
        fail("perfbench.exe printed nothing", 3)
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def record(workdir):
    tables = {}
    for group in ["design-sweep", "fleet", "long-run"]:
        print("recording %s ..." % group, file=sys.stderr)
        res = run_exe(["record", "--workload", group, "--dir", workdir],
                      timeout=RECORD_TIMEOUT_S)
        tables[group] = {op_id: digest for op_id, digest, _ in res["ops"]}
    with open(EXPECTED, "w") as f:
        json.dump(tables, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % EXPECTED, file=sys.stderr)


def check(workload, ops):
    """(attempted, failed, mismatching op ids) against expected.json."""
    try:
        table = load_json(EXPECTED)[TABLE.get(workload, workload)]
    except (OSError, ValueError, KeyError):
        table = {}
    attempted = failed = 0
    bad = []
    for op_id, digest, count in ops:
        attempted += count
        if table.get(op_id) != digest:
            failed += count
            bad.append(op_id)
    return attempted, failed, bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from the current build")
    a = ap.parse_args()
    if not a.record and a.workload is None:
        ap.error("--workload is required")

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if a.seconds is None:
        a.seconds = float(bench["run_seconds"])
    build()
    workdir = os.path.join(STATE, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if a.record:
            record(workdir)
            return
        spans = os.path.join(STATE, "spans-%s.json" % a.workload)
        res = run_exe(["run", "--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace),
                       "--dir", workdir, "--spans", spans])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, bad = check(a.workload, res["ops"])
    reported = {m["name"]: m for m in res["metrics"]}
    wanted = bench["per_layer" if a.trace else "end_to_end"]
    missing = [w["name"] for w in wanted if w["name"] not in reported]
    if missing:
        fail("metrics not produced: %s" % ", ".join(missing), 3)
    values_ok = all(math.isfinite(reported[w["name"]]["value"]) for w in wanted)
    if not a.trace:
        values_ok = values_ok and all(
            reported[w["name"]]["value"] > 0 for w in wanted)

    print("%s  seed %d  %s run, %g s" % (
        a.workload, a.seed, "traced" if a.trace else "untraced", a.seconds))
    gated = {w["name"] for w in wanted}
    for m in res["metrics"]:
        print("  %s %-24s %14.6g %-9s %s" % (
            "*" if m["name"] in gated else " ", m["name"], m["value"],
            m["unit"], m["note"]))
    print("  output check: %d of %d operations match expected.json%s" % (
        attempted - failed, attempted,
        "" if not bad else "; first mismatch: " + bad[0]))
    if a.trace:
        print("  spans: %s" % os.path.relpath(spans, ROOT))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0 and values_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": reported[w["name"]]["value"],
                                "unit": w["unit"]} for w in wanted},
    }))


if __name__ == "__main__":
    main()
