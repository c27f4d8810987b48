"""Closed-loop benchmark of the posheap library.

Run from the repository root:

    python3 perfbench/run.py --workload recover --seed 1 --seconds 30 --trace 0

One client in one thread sends the workload's requests back to back, each
a call into the public API of posheap, and checks every answer between
requests, outside the timed window.  The timed window is the sum of the
request latencies; the run makes whole passes over the workload's request
pool until that sum reaches --seconds.  With --trace 0 each pass runs after
a set-up of its own, and it prints the end-to-end metrics; with --trace 1
every request runs once plain and once traced, and it prints per-layer
metrics and writes the spans to .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names are those listed in
BENCHMARK.json.  The exit code is 0 when every answer checked out, 1 when
one did not, and 2 when the posheap sources are missing.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "count_digests.json"

# per-layer busy times, in seconds per request, from spans directly under a request
LAYER_TIMES = (
    "heap.build", "heap.to_sketch", "pht.parse", "pht.write", "sketch.iso",
    "trace.links", "trace.sigma", "trace.graph", "trace.propagate", "trace.readout",
    "ecp.solve", "ecp.count", "ecp.enum",
)
# per-layer counts, per request
LAYER_COUNTS = (
    "heap.build_calls", "heap.build_positions", "pht.parse_bytes",
    "trace.graph_arcs", "trace.total_multiplicity", "trace.priority_arcs",
    "ecp.det_dim", "ecp.det_mults", "ecp.count_bits", "ecp.enum_cycles",
)


def fresh_import():
    for name in [m for m in sys.modules if m == "posheap" or m.startswith("posheap.")]:
        del sys.modules[name]
    return importlib.import_module("posheap")


def set_up(workload, drawn):
    """Import posheap, build the request pool from the drawn inputs, run one request.

    The warm-up request's latency is not a sample.  It is the pool's
    shortest request, so that set-up does not depend on which request the
    seed happens to put first.  A full collection first, outside the timed
    span, lets every set-up start from the same heap.
    """
    gc.collect()
    start = perf_counter()
    ph = fresh_import()
    pool = workload.prepare(ph, drawn)
    workload.call(ph, min(pool, key=lambda req: (req.n, req.rid)), perf_counter)
    return perf_counter() - start, ph, pool


def timed_call(workload, ph, req):
    start = perf_counter()
    try:
        outcome = workload.call(ph, req, perf_counter)
    except Exception:
        traceback.print_exc()
        outcome = None
    return outcome, perf_counter() - start


class Checker:
    """Full check of each pool request's first answer, digest match for repeats."""

    def __init__(self, workload):
        self.workload = workload
        self.ph = None  # the module of the set-up whose answers are checked
        self.digests = {}  # rid -> digest of the first answer that checked out
        self.seconds = 0.0

    def ok(self, req, outcome):
        if outcome is None:
            return False
        start = perf_counter()
        try:
            d = self.workload.answer_digest(req, outcome)
            if req.rid in self.digests:
                return self.digests[req.rid] == d
            good = self.workload.check(self.ph, req, outcome)
            if good:
                self.digests[req.rid] = d
            return good
        finally:
            self.seconds += perf_counter() - start

    def pool_digest(self):
        return workloads.digest([self.digests[rid] for rid in sorted(self.digests)])


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Samples:
    """Per-request samples, plus totals per pass over the whole request pool."""

    def __init__(self):
        self.latency = []
        self.first = []
        self.attempted = 0
        self.failed = 0
        self.timed = 0.0
        self.passes = []  # [timed seconds, requests, positions, answers] per pool pass

    def start_pass(self):
        self.passes.append([0.0, 0, 0, 0])

    def add(self, req, outcome, latency, good):
        self.attempted += 1
        self.timed += latency
        totals = self.passes[-1]
        totals[0] += latency
        if not good:
            self.failed += 1
            print("FAILED request %d (%s, n=%d)" % (req.rid, req.op, req.n), file=sys.stderr)
            return
        self.latency.append(latency)
        self.first.append(latency if outcome.first_s is None else outcome.first_s)
        totals[1] += 1
        totals[2] += req.n
        totals[3] += outcome.answers

    def rate(self, column):
        """Median over pool passes of that pass's total divided by its timed seconds.

        Every pass has the same requests, so the passes are repeated
        measurements of one quantity; the median drops passes that a
        transient stall of the host slowed.
        """
        return statistics.median(p[column] / p[0] for p in self.passes)


def pool_passes(pool, seconds, samples):
    """Yield the requests of whole pool passes until the timed window is full."""
    while not samples.passes or samples.timed < seconds:
        samples.start_pass()
        yield from pool


def measure(workload, drawn, seconds, checker):
    """Timed pool passes, each after a set-up of its own.

    Returns the samples, the median set-up time and the last set-up's
    module.  Set-up time is thus sampled across the whole run, as request
    time is.  Set-ups made back to back fall in one phase of the host's
    speed, and their median spread from run to run far more than the
    throughput did.
    """
    samples = Samples()
    setups = []
    while not samples.passes or samples.timed < seconds:
        ph = pool = None  # the last pass's pool is not to burden this set-up's collections
        setup_s, ph, pool = set_up(workload, drawn)
        setups.append(setup_s)
        checker.ph = ph
        samples.start_pass()
        for req in pool:
            outcome, latency = timed_call(workload, ph, req)
            samples.add(req, outcome, latency, checker.ok(req, outcome))
    return samples, statistics.median(setups), ph


def measure_traced(workload, ph, pool, seconds, checker):
    """Each request once plain and once traced; returns both sample sets and the tracer.

    Which of the two calls goes first alternates from request to request,
    so that neither always finds the caches warmed by the other.
    """
    plain, traced = Samples(), Samples()
    tracer = tracing.Tracer()
    requests = []  # (seq, request, latency traced, latency plain)
    for req in pool_passes(pool, seconds / 2, plain):
        if len(traced.passes) < len(plain.passes):
            traced.start_pass()
        seq = len(requests)
        if seq % 2:
            outcome_t, latency_t = traced_call(workload, ph, req, tracer, seq)
            outcome, latency = timed_call(workload, ph, req)
        else:
            outcome, latency = timed_call(workload, ph, req)
            outcome_t, latency_t = traced_call(workload, ph, req, tracer, seq)
        plain.add(req, outcome, latency, checker.ok(req, outcome))
        traced.add(req, outcome_t, latency_t, checker.ok(req, outcome_t))
        requests.append((seq, req, latency_t, latency))
    return plain, traced, tracer, requests


def traced_call(workload, ph, req, tracer, seq):
    tracer.begin(seq)
    with tracing.installed(ph, tracer):
        outcome = timed_call(workload, ph, req)
    tracer.end()
    return outcome


def end_to_end(samples, setup_s):
    ms = 1e3
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (samples.rate(1), "1/s"),
        "positions_per_s": (samples.rate(2), "positions/s"),
        "latency_p50_ms": (statistics.median(samples.latency) * ms, "ms"),
        "latency_p90_ms": (quantile(samples.latency, 90) * ms, "ms"),
        "first_text_p50_ms": (statistics.median(samples.first) * ms, "ms"),
        "first_text_p90_ms": (quantile(samples.first, 90) * ms, "ms"),
        "texts_per_s": (samples.rate(3), "texts/s"),
        "failed_ratio": (samples.failed / samples.attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(plain, traced, tracer, requests, checker, ph, pool):
    count = len(requests)
    busy = dict.fromkeys(LAYER_TIMES + ("ecp.first_cycle",), 0.0)
    covered = [0.0] * count
    for name, start, end, parent in tracer.spans:
        if isinstance(parent, int):
            busy[name] += end - start
            if name != "ecp.first_cycle":
                covered[parent] += end - start
    self_s = sum(latency_t - covered[seq] for seq, _, latency_t, _ in requests)
    coverage = statistics.median(covered[seq] / latency for seq, _, _, latency in requests)
    overhead = statistics.median(traced.latency) - statistics.median(plain.latency)
    metrics = {name + "_s": (busy[name] / count, "s") for name in busy}
    metrics.update({name: (tracer.counts.get(name, 0) / count, "count") for name in LAYER_COUNTS})
    metrics["infer.self_s"] = (self_s / count, "s")
    metrics["oracle.check_s"] = (checker.seconds / count, "s")
    metrics["tracing.overhead_ms"] = (overhead * 1e3, "ms")
    metrics["tracing.span_coverage"] = (coverage, "ratio")
    kept = orbit_kept_ratio(ph, pool)
    if kept is not None:
        metrics["infer.p4_orbit_kept_ratio"] = (kept, "ratio")
    return metrics


def orbit_kept_ratio(ph, pool):
    """Orbit-minimal root assignments over assignments tried, over enum_p4 requests.

    enum_p4 tries every injective assignment of letters to the root's
    children and keeps the orbit-minimal ones; count_p4 is the cycle count of
    the canonical labeling times the kept assignments, so kept = count_p4 /
    count_p3(canonical) and tried is the falling factorial.  None when the
    pool has no enum_p4 request.
    """
    kept = tried = 0
    for req in pool:
        if req.op != "enum4":
            continue
        sketch, alphabet = req.payload, req.alphabet
        canonical = sketch.with_labels(ph.infer_p4(sketch, alphabet).labels)
        roots = len(sketch.children[sketch.root])
        assignments = 1
        for i in range(roots):
            assignments *= len(alphabet) - i
        kept += ph.count_p4(sketch, alphabet) // ph.count_p3(canonical)
        tried += assignments
    return kept / tried if tried else None


def write_spans(tracer, requests, workload, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-seed%d.jsonl" % (workload.name, seed))
    with open(path, "w", encoding="utf-8") as fh:
        for seq, req, latency_t, latency in requests:
            fh.write(json.dumps({"request": seq, "op": req.op, "n": req.n, "latency_s": latency_t,
                                 "plain_latency_s": latency}) + "\n")
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
    return path


def count_extra_checks(ph, checker, seed):
    """Pool digest against the recorded one, and the small-instance cross-checks."""
    good = True
    recorded = json.loads(DIGESTS.read_text()).get(str(seed))
    actual = checker.pool_digest()
    if recorded is None:
        print("count: no digest recorded for seed %d (pool digest %s)" % (seed, actual))
    elif recorded != actual:
        print("count: pool digest %s differs from the recorded %s" % (actual, recorded), file=sys.stderr)
        good = False
    else:
        print("count: pool digest matches the one recorded for seed %d" % seed)
    failures = workloads.small_count_failures(ph, seed)
    print("count: %d small-instance cross-check failures" % failures)
    return good and failures == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "posheap" / "__init__.py").is_file():
        print("perfbench: posheap sources not found under %s" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    drawn = workload.draw(importlib.import_module("posheap"), args.seed)
    checker = Checker(workload)

    if args.trace:
        _, ph, pool = set_up(workload, drawn)
        checker.ph = ph
        plain, traced, tracer, requests = measure_traced(workload, ph, pool, args.seconds, checker)
        runs = {"plain": plain, "traced": traced}
        metrics = per_layer(plain, traced, tracer, requests, checker, ph, pool)
        listed = spec["per_layer"]
        print("spans written to %s" % write_spans(tracer, requests, workload, args.seed))
    else:
        samples, setup_s, ph = measure(workload, drawn, args.seconds, checker)
        runs = {"plain": samples}
        metrics = end_to_end(samples, setup_s)
        listed = spec["end_to_end"]

    attempted = sum(s.attempted for s in runs.values())
    failed = sum(s.failed for s in runs.values())
    correct = failed == 0
    if workload.name == "count":
        correct = count_extra_checks(ph, checker, args.seed) and correct

    for kind, s in runs.items():
        print("workload %s seed %d, %s: %d requests in %.2f s timed, %d failed, %d latency samples, "
              "%d pool passes" % (workload.name, args.seed, kind, s.attempted, s.timed, s.failed,
                                  len(s.latency), len(s.passes)))
    for name, (value, unit) in metrics.items():
        line = "%-28s %.6g %s" % (name, value, unit)
        if args.trace and unit == "s":
            line += "  (%.1f%% of a traced request)" % (100 * value * traced.attempted / traced.timed)
        print(line)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
