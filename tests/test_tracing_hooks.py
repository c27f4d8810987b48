"""The benchmark's traced run must find every function it wraps.

perfbench/tracing.py swaps functions by name in posheap.infer and in the
package namespace.  A name that is renamed or inlined away would otherwise
only show up as an AttributeError in a traced benchmark run; here it fails
the test suite.  The perfbench directory is only read.
"""

from pathlib import Path

import posheap

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    infer = posheap.infer
    before = {name: getattr(infer, name) for names in tracing.INFER_LAYERS.values() for name in names}
    s = posheap.build_position_heap("aaabac").to_sketch(numbered=False, labeled=False, links=True)
    tracer = tracing.Tracer()
    tracer.begin(0)
    with tracing.installed(posheap, tracer):
        texts = list(posheap.enum_p4(s, posheap.Alphabet("abc")))
    tracer.end()
    assert len(texts) == 12
    layers = {name for name, _, _, parent in tracer.spans if parent == 0}
    assert {"trace.graph", "trace.propagate", "ecp.solve", "ecp.enum"} <= layers
    assert all(getattr(infer, name) is fn for name, fn in before.items())
