"""Steadiness check: do repeated runs of one commit agree within the bounds?

Run from the repository root:

    python3 perfbench/steady.py --workload recover --workload count

For each workload it makes two sets of ten runs, each run with its own seed
(1-10, then 11-20), at BENCHMARK.json's run_seconds.  For every end-to-end
metric it prints each set's median and quartile spread (the distance between
the first and third quartile as a share of the median), and then whether

  * every set's spread stays within the metric's bound, and below a third
    of it, the margin this benchmark aims for, and
  * the second set's median is no worse than the first set's by more than
    the bound.

The per-run results and wall times are appended to
.perfbench_out/steady.jsonl.  The exit
code is 1 when a spread or a median is out of bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOG = ROOT / ".perfbench_out" / "steady.jsonl"
RUNS = 10
SETS = 2
FIRST_SEED = 1


def one_run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (%d): %s\n%s" % (proc.returncode, " ".join(cmd), proc.stderr))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("run reported incorrect answers: %s" % " ".join(cmd))
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first, later, better):
    """Share by which the later median is worse than the first one."""
    return (first - later) / first if better == "higher" else (later - first) / first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    LOG.parent.mkdir(exist_ok=True)
    ok = True
    for workload in args.workload:
        sets = []
        seed = FIRST_SEED
        for s in range(SETS):
            runs = []
            for _ in range(RUNS):
                metrics, wall = one_run(workload, seed, spec["run_seconds"])
                with open(LOG, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "set": s, "seed": seed, "wall_s": wall,
                                         "metrics": metrics}) + "\n")
                runs.append(metrics)
                seed += 1
            sets.append(runs)
        print("== %s: %d sets of %d runs" % (workload, SETS, RUNS))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r[name] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            verdict = []
            if max(spreads) > bound:
                verdict.append("SPREAD OVER BOUND")
                ok = False
            elif max(spreads) > bound / 3:
                verdict.append("spread over bound/3")
            drift = [worse_by(medians[0], later, m["better"]) for later in medians[1:]]
            if any(d > bound for d in drift):
                verdict.append("MEDIAN WORSE BY MORE THAN BOUND")
                ok = False
            print("%-20s bound %.2f  medians %s  spreads %s  later-set drift %s  %s" % (
                name, bound,
                " ".join("%.5g" % v for v in medians),
                " ".join("%.3f" % v for v in spreads),
                " ".join("%+.3f" % d for d in drift) or "-",
                "; ".join(verdict) or "ok"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
