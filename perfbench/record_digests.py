"""Record the count workload's pool digest for a range of seeds.

Run from the repository root, after a change to the count pool or when the
counts are meant to change:

    python3 perfbench/record_digests.py 0 63

Each digest covers the exact counts of the whole request pool of that seed,
in request-id order, the same way run.py's checker computes it.  The result
is merged into perfbench/count_digests.json.
"""

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "count_digests.json"


def pool_digest(ph, seed):
    count = workloads.WORKLOADS["count"]
    requests = sorted(count.prepare(ph, count.draw(ph, seed)), key=lambda req: req.rid)
    return workloads.digest([count.answer_digest(req, count.call(ph, req, None)) for req in requests])


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, str(HERE.parent / "src"))
    import posheap

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for seed in range(first, last + 1):
        recorded[str(seed)] = pool_digest(posheap, seed)
        print(seed, recorded[str(seed)], flush=True)
    ordered = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
