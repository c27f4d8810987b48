"""From a sketch to the multigraph whose Eulerian cycles spell its texts.

A full heap walks its text: hop to the link target of the current node,
descend one tree edge to the node of the next position, repeat.  Flattening
that walk gives a closed trail through the tree that uses every link once
and tree edges with definite multiplicities.  Those multiplicities are
forced by flow balance alone, so they can be recomputed from the bare tree
plus links; the resulting "trace graph" turns text recovery into finding an
Eulerian cycle that leaves every branching node through its link first.

Each stage reads the lists a sketch stores (HeapSketch.layout: node i is
nodes()[i]).  The link map and multiplicities passed between stages are
keyed by node ids; propagate_labels returns the input's lists with new
letters.  The trace graph itself is integer-indexed.
"""

from dataclasses import dataclass
from functools import cached_property

from .ecp import Multigraph, PrioritySet
from .errors import LinkInconsistent, NegativeSigma, NoSuchChild
from .sketch import HeapSketch, _require_labeled


def reconstruct_suffix_links(s: HeapSketch) -> dict:
    """Recover the unique link map a labeled tree admits.

    Depth-1 nodes link to the root; deeper, the link of a c-child is the
    c-child of the parent's link.  Raises NoSuchChild when that child is
    missing, which proves no text produced this tree.  Needs labels and
    distinct sibling labels.
    """
    _require_labeled(s)
    nodes, _, parent, letters = s.layout()
    # child of node p by letter c, keyed by the int p * width + code[c]
    code = {c: j for j, c in enumerate(dict.fromkeys(letters[1:]))}
    width = len(code)
    keys = [parent[i] * width + code[c] for i, c in enumerate(letters) if i]
    child = dict(zip(keys, range(1, len(nodes))))
    if len(child) != len(keys):
        raise ValueError("sibling labels must be distinct per parent")
    link = [0] * len(nodes)
    for i in range(1, len(nodes)):  # parent-first order
        p = parent[i]
        if p:
            t = child.get(link[p] * width + code[letters[i]])
            if t is None:
                raise NoSuchChild(
                    "link target of %r needs a %r-child of %r"
                    % (nodes[i], letters[i], nodes[link[p]])
                )
            link[i] = t
    return dict(zip(nodes[1:], [nodes[t] for t in link[1:]]))


def _link_numbers(s: HeapSketch, links: dict) -> list:
    """links by node number: link[i] is the number of node i's target.

    link[0] is -1 unless the map gives the root a link.  ValueError when
    the map is not total on non-root nodes or points outside the tree.
    """
    nodes, index, _, _ = s.layout()
    try:
        link = [index[links[v]] for v in nodes[1:]]
        root_target = index[links[s.root]] if s.root in links else -1
    except KeyError:
        raise ValueError("link map must be total on non-root nodes and point at nodes") from None
    return [root_target] + link


def compute_sigma(s: HeapSketch, links: dict) -> dict:
    """Tree-edge multiplicities forced by flow balance.

    For the edge e into node v: sigma(e) = 1 - (links arriving at v) +
    (sigma of edges leaving v).  Unique bottom-up; a negative value raises
    NegativeSigma and proves the instance invalid.
    """
    nodes, _, parent, _ = s.layout()
    # acc[i] starts at 1 - (links arriving at i) and gains the sigma of each
    # edge leaving i; children come after parents, so acc[i] is sigma of the
    # edge into i by the time the backward pass reaches it.
    acc = [1] * len(nodes)
    for t in _link_numbers(s, links):
        if t >= 0:
            acc[t] -= 1
    for i in range(len(nodes) - 1, 0, -1):
        value = acc[i]
        if value < 0:
            raise NegativeSigma("edge into %r would need multiplicity %d" % (nodes[i], value))
        acc[parent[i]] += value
    return dict(zip(zip(map(nodes.__getitem__, parent[1:]), nodes[1:]), acc[1:]))


@dataclass(frozen=True)
class TraceGraph:
    """Tree edges with positive multiplicity plus all link arcs.

    graph is integer-indexed over the sketch's layout: node i is
    s.nodes()[i].  Edge ids 0 .. tree_arcs - 1 are the tree edges with
    positive multiplicity in sketch edge order, and the ids after them are
    the link arcs in node order.  So each node's out-edges are its tree
    edges in child order followed by its link, and that is the order in
    which the solvers break ties.  priority is the PrioritySet of the link
    arcs that must be taken before any other departure from their tail,
    checked once when the graph is built.  letters[e] is the letter of tree
    edge e, or None throughout when the sketch had no labels.  links and
    labels give the same arcs and letters keyed by (u, v) pairs; they are
    spelled out on first use and no solver reads them.
    """

    graph: Multigraph
    root: object
    priority: PrioritySet
    tree_arcs: int
    letters: list

    @property
    def n(self) -> int:
        return len(self.graph.mult) - self.tree_arcs

    @cached_property
    def links(self) -> frozenset:
        return frozenset(self.graph.edges()[self.tree_arcs :])

    @cached_property
    def labels(self) -> dict:
        if not self.letters or self.letters[0] is None:
            return {}
        return dict(zip(self.graph.edges(), self.letters))


def build_trace_graph(s: HeapSketch, links: dict, sigma: dict) -> TraceGraph:
    """Assemble the trace graph; zero-multiplicity edges are dropped.

    A link arc gets priority iff its tail still has an outgoing tree edge
    after the drop (a node whose link is its only way out needs no
    constraint).  Edge order, and therefore every deterministic choice
    later, follows sketch document order.
    """
    nodes, index, parent, letters = s.layout()
    link = _link_numbers(s, links)
    sig = [0] + [sigma[e] for e in zip(map(nodes.__getitem__, parent[1:]), nodes[1:])]
    head = [i for i in range(1, len(nodes)) if sig[i] > 0]
    tail = [parent[i] for i in head]
    mult = [sig[i] for i in head]
    tree_letters = [letters[i] for i in head]
    has_tree_out = bytearray(len(nodes))
    for u in tail:
        has_tree_out[u] = 1
    priority = []
    for i, t in enumerate(link):
        if t < 0:
            continue
        if t == i or (parent[t] == i and sig[t] > 0):
            raise ValueError("link arc %r -> %r repeats a tree edge or loops" % (nodes[i], nodes[t]))
        if has_tree_out[i]:
            priority.append(len(tail))
        tail.append(i)
        head.append(t)
        mult.append(1)
    graph = Multigraph.from_indexed(nodes, index, tail, head, mult)
    return TraceGraph(
        graph=graph,
        root=s.root,
        priority=PrioritySet(graph, priority),
        tree_arcs=len(tree_letters),
        letters=tree_letters,
    )


def read_text_from_cycle(tg: TraceGraph, cycle) -> tuple:
    """Spell the text and the node numbering a cycle encodes.

    The i-th tree-arc occurrence carries letter i of the text; the tail of
    the i-th link occurrence is the node of position i; the root is node 0.
    """
    g = tg.graph
    ids = cycle.edge_ids(g)
    k = tg.tree_arcs
    letters = tg.letters
    text = "".join([letters[e] for e in ids if e < k])
    nodes, tail = g.nodes, g.tail
    numbered = [nodes[tail[e]] for e in ids if e >= k]
    numbering = {tg.root: 0}
    numbering.update(zip(numbered, range(1, len(numbered) + 1)))
    assert len(text) == len(numbered) == tg.n
    return text, numbering


def propagate_labels(s: HeapSketch, assignment: dict) -> HeapSketch:
    """Label a link-annotated shape from a root-edge assignment.

    Every deeper edge copies the label of the edge between the link targets
    of its endpoints, top-down by depth.  LinkInconsistent when the link map
    is not total on non-root nodes, touches the root, skips a depth level,
    or points between non-adjacent nodes.
    """
    nodes, _, parent, _ = s.layout()
    link = s._link or [-1] * len(nodes)
    if link[0] >= 0:
        raise LinkInconsistent("the root cannot carry a link")
    depth = [0] * len(nodes)
    levels = {1: []}  # depth -> its nodes in node order; depths come in increasing order
    for i in range(1, len(nodes)):
        depth[i] = depth[parent[i]] + 1
        levels.setdefault(depth[i], []).append(i)
    for i in range(1, len(nodes)):
        if link[i] < 0:
            raise LinkInconsistent("node %r has no link" % (nodes[i],))
        if depth[link[i]] != depth[i] - 1:
            raise LinkInconsistent("link of %r does not rise exactly one level" % (nodes[i],))

    roots = [nodes[i] for i in levels[1]]
    if set(assignment) != set(roots):
        raise ValueError("assignment must cover exactly the root's children")
    if len(set(assignment.values())) != len(roots):
        raise ValueError("assignment letters must be distinct")

    letters = [None] * len(nodes)
    for i in levels.pop(1):
        letters[i] = assignment[nodes[i]]
    for level in levels.values():
        for i in level:
            t = link[i]
            if parent[t] != link[parent[i]]:
                raise LinkInconsistent(
                    "links of %r and %r are not joined by an edge" % (nodes[parent[i]], nodes[i])
                )
            letters[i] = letters[t]
    return s._with_letters(letters)
