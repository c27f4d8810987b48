"""Graphviz rendering of heaps, sketches and trace graphs.

Tree edges come out solid and labeled, suffix links dashed, priority link
arcs bold.  Output order follows document order so the same object always
renders to the same bytes.
"""

from .heap import PositionHeap
from .sketch import HeapSketch
from .trace import TraceGraph


def _q(value) -> str:
    return '"%s"' % str(value).replace("\\", "\\\\").replace('"', '\\"')


def _sketch_dot(s: HeapSketch, name: str) -> str:
    out = ["digraph %s {" % name, "  rankdir=TB;", '  node [shape=circle, fontsize=11];']
    for node in s.nodes():
        caption = str(s.numbering[node]) if s.is_numbered else str(node)
        shape = ' peripheries=2' if node == s.root else ""
        out.append("  %s [label=%s%s];" % (_q(node), _q(caption), shape))
    for parent, child, letter in s.edge_list:
        tag = " [label=%s]" % _q(letter) if letter is not None else ""
        out.append("  %s -> %s%s;" % (_q(parent), _q(child), tag))
    for node, target in (s.links or {}).items():  # in node order
        out.append("  %s -> %s [style=dashed, constraint=false];" % (_q(node), _q(target)))
    out.append("}")
    return "\n".join(out) + "\n"


def _trace_dot(tg: TraceGraph, name: str) -> str:
    out = ["digraph %s {" % name, "  rankdir=TB;", '  node [shape=circle, fontsize=11];']
    for node in tg.graph.nodes:
        shape = ' peripheries=2' if node == tg.root else ""
        out.append("  %s [label=%s%s];" % (_q(node), _q(node), shape))
    for u, v in tg.graph.edges():
        mult = tg.graph.gamma[(u, v)]
        if (u, v) in tg.links:
            style = "style=dashed"
            if (u, v) in tg.priority:
                style += ", penwidth=2"
            out.append("  %s -> %s [%s, constraint=false];" % (_q(u), _q(v), style))
        else:
            caption = tg.labels.get((u, v), "")
            if mult > 1:
                caption = "%s x%d" % (caption, mult) if caption else "x%d" % mult
            tag = " [label=%s]" % _q(caption) if caption else ""
            out.append("  %s -> %s%s;" % (_q(u), _q(v), tag))
    out.append("}")
    return "\n".join(out) + "\n"


def export_dot(obj, name: str = "posheap") -> str:
    """DOT source for a PositionHeap, HeapSketch or TraceGraph."""
    if isinstance(obj, PositionHeap):
        return _sketch_dot(obj.to_sketch(), name)
    if isinstance(obj, HeapSketch):
        return _sketch_dot(obj, name)
    if isinstance(obj, TraceGraph):
        return _trace_dot(obj, name)
    raise TypeError("cannot render %r" % type(obj).__name__)
