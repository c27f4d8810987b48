"""Recover a source text from a tree that kept only its edge letters.

Usage: python3 demos/recover_text.py [text]

Builds the heap of the given text, throws away the position numbers and
suffix links, and runs the inverse pipeline on what is left: reconstruct
the links from the labels, derive the forced edge multiplicities, and walk
one respecting Eulerian cycle of the trace graph.  The recovered text is
usually not the one we started from; any member of the isomorphism class
is a correct answer, and the count says how large that class is.
"""

import sys

from posheap import (
    build_position_heap,
    build_trace_graph,
    compute_sigma,
    count_p3,
    infer_p3,
    reconstruct_suffix_links,
)


def main() -> int:
    text = sys.argv[1] if len(sys.argv) > 1 else "abaababc"
    sketch = build_position_heap(text).to_sketch(
        numbered=False, labeled=True, links=False
    )
    print("source text:   %s" % text)

    links = reconstruct_suffix_links(sketch)
    sigma = compute_sigma(sketch, links)
    tg = build_trace_graph(sketch, links, sigma)
    print("link arcs:     %d" % len(tg.links))
    print("tree arcs:     %d (multiplicities %s)" % (
        len(sigma),
        sorted(sigma.values(), reverse=True),
    ))
    print("priority arcs: %d" % len(tg.priority))

    found = infer_p3(sketch)
    assert found is not None  # came from a real text, so a witness exists
    print("recovered:     %s" % found.text)
    print("class size:    %d" % count_p3(sketch))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
