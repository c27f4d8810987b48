"""The count workload's exact answers, checked against the recorded digests.

perfbench/count_digests.json holds one digest per seed over the exact counts
of that seed's whole count pool.  Recomputing the first seeds here keeps
count exactness under the test suite, not only under the benchmark.  The
file is only read.
"""

import json
from pathlib import Path

import pytest

import posheap

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("seed", range(8))
def test_count_pool_digest_matches_record(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import record_digests

    recorded = json.loads((PERFBENCH / "count_digests.json").read_text())
    assert record_digests.pool_digest(posheap, seed) == recorded[str(seed)]
