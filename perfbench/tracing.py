"""Span recording around the public functions of each posheap module.

The traced run calls the same entry points as the untraced run.  While a
traced request runs, every public function it passes through is replaced,
in the namespace its caller looks it up in, by a wrapper that records a
span (name, start, end, parent).  Spans therefore follow the order
infer_pK, count_pK and enum_pK really call those functions, including the
private glue between them, without copying that glue here.  The wrappers
are taken out again before the answer is checked.

Counts are taken at the same boundaries; anything that costs more than a
len() is computed after the request span has closed, from the objects the
boundary saw.
"""

from time import perf_counter

# layer name -> functions it covers, looked up in posheap.infer, which is
# where infer_pK, count_pK and enum_pK resolve them
INFER_LAYERS = {
    "heap.build": ("build_position_heap",),
    "sketch.iso": ("label_iso_map", "tree_equal", "numbered_shape_equal"),
    "trace.links": ("reconstruct_suffix_links",),
    "trace.sigma": ("compute_sigma",),
    "trace.graph": ("build_trace_graph",),
    "trace.propagate": ("propagate_labels",),
    "trace.readout": ("read_text_from_cycle",),
    "ecp.solve": ("solve_ecp",),
    "ecp.count": ("count_ecp",),
}
# the benchmark's own calls (build requests, PHT input) go through the package
PACKAGE_LAYERS = {
    "heap.build": ("build_position_heap",),
    "pht.parse": ("parse_pht",),
    "pht.write": ("write_pht",),
}


NESTED = "nested"


class Tracer:
    """In-memory spans plus counters taken at layer boundaries.

    stack holds the parent of the next span: a request id while a request
    runs, NESTED inside a layer call.  Only spans whose parent is a request
    are layer time; nested ones stay in the record but count once, through
    their enclosing span.
    """

    def __init__(self):
        self.spans = []  # (name, start, end, parent)
        self.counts = {}
        self.deferred = []  # (kind, object) to count once the request has ended
        self.stack = []
        self.awaiting_first_cycle = False

    def begin(self, request):
        """Make request the parent of the next spans; its first cycle is still to come."""
        self.stack[:] = [request]
        self.awaiting_first_cycle = True

    def end(self):
        self.stack.clear()
        self.settle()

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def settle(self):
        """Turn the deferred boundary objects into counts, outside any span."""
        for kind, obj in self.deferred:
            if kind == "graph":
                self.add("trace.graph_arcs", len(obj.graph.gamma))
                self.add("trace.total_multiplicity", obj.graph.total_multiplicity())
                self.add("trace.priority_arcs", len(obj.priority))
            elif kind == "det":
                dim = len(obj.active_nodes()) - 1
                self.add("ecp.det_dim", dim)
                # Bareiss does 2 multiplications per (k, i, j) with i, j > k
                self.add("ecp.det_mults", 2 * sum(m * m for m in range(1, dim)))
            else:
                self.add("ecp.count_bits", obj.bit_length())
        self.deferred.clear()


def _wrap(tracer, name, fn):
    stack, spans = tracer.stack, tracer.spans

    def traced(*args, **kwargs):
        parent = stack[-1] if stack else None
        stack.append(NESTED)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans.append((name, start, end, parent))

    return traced


def _count_boundary(tracer, name, fn):
    """Wrappers that also count what crosses the boundary."""
    traced = _wrap(tracer, name, fn)
    if name == "heap.build":
        def counted(text, *args, **kwargs):
            tracer.add("heap.build_calls")
            tracer.add("heap.build_positions", len(text))
            return traced(text, *args, **kwargs)
    elif name == "pht.parse":
        def counted(doc, *args, **kwargs):
            tracer.add("pht.parse_bytes", len(doc))
            return traced(doc, *args, **kwargs)
    elif name == "trace.graph":
        def counted(*args, **kwargs):
            tg = traced(*args, **kwargs)
            tracer.deferred.append(("graph", tg))
            return tg
    elif name == "ecp.count":
        def counted(graph, *args, **kwargs):
            value = traced(graph, *args, **kwargs)
            tracer.deferred.append(("det", graph))
            tracer.deferred.append(("count", value))
            return value
    else:
        return traced
    return counted


def _wrap_enumeration(tracer, fn):
    """Each step of the cycle stream is one ecp.enum span.

    The step that yields the request's first cycle is also an
    ecp.first_cycle span.  enum_p4 opens one stream per orbit-minimal root
    assignment, so the flag lives on the tracer, per request, not per stream.
    """
    step = _wrap(tracer, "ecp.enum", next)
    spans = tracer.spans

    def traced(*args, **kwargs):
        stream = fn(*args, **kwargs)
        while True:
            try:
                cycle = step(stream)
            except StopIteration:
                return
            if tracer.awaiting_first_cycle:
                spans.append(("ecp.first_cycle",) + spans[-1][1:])
                tracer.awaiting_first_cycle = False
            tracer.add("ecp.enum_cycles")
            yield cycle

    return traced


class installed:
    """Context manager that puts the wrappers in place and takes them out again."""

    def __init__(self, ph, tracer):
        self.ph = ph
        self.tracer = tracer
        self.saved = []

    def _patch(self, owner, attr, value):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        ph, tracer = self.ph, self.tracer
        infer = ph.infer
        for name, functions in INFER_LAYERS.items():
            for fn in functions:
                self._patch(infer, fn, _count_boundary(tracer, name, getattr(infer, fn)))
        self._patch(infer, "enumerate_ecp", _wrap_enumeration(tracer, infer.enumerate_ecp))
        for name, functions in PACKAGE_LAYERS.items():
            for fn in functions:
                self._patch(ph, fn, _count_boundary(tracer, name, getattr(ph, fn)))
        self._patch(ph.PositionHeap, "to_sketch", _wrap(tracer, "heap.to_sketch", ph.PositionHeap.to_sketch))
        return tracer

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()
        return False
