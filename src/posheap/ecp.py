"""Eulerian cycles with priority edges on directed multigraphs.

An instance is a directed multigraph g (edge multiplicities gamma >= 1, no
self-loops), a start node r, and a priority set f of edges with multiplicity
1, at most one per tail node.  A cycle from r that uses every edge exactly
gamma times "respects" f when no departure from a node u precedes the
priority edge out of u.  Parallel copies of an edge are indistinguishable:
cycles are compared as sequences of edges, not of copies.

solve_ecp finds one respecting cycle (or reports none), count_ecp counts
them all exactly, enumerate_ecp streams every one of them without
duplicates.  Counting is BEST-theorem style, adjusted for priorities by
removing priority edges from both the free orderings and the spanning-tree
sum.  The arborescence total is a weighted matrix-tree determinant, taken
by sparse elimination in least-fill order modulo a prime above a bound on
it, so counts are exact at any size.

The solvers work on integers only.  A Multigraph numbers its nodes and its
edges in construction order and keeps flat lists indexed by those numbers;
a priority set is resolved once into a PrioritySet, one edge id or -1 per
node, and checked then.  Each call checks its instance once, in _prepare,
and the solver, the counter and the enumerator all read the same lists.
Node names and (u, v) pairs appear only at the front: when a Multigraph is
built from named edges, when f is given as pairs, and in EulerCycle.arcs
and Multigraph.gamma, which are spelled out on first use.

Every deterministic choice breaks ties by edge id, that is, by construction
order.  The spanning tree toward r is a breadth-first search from r over
entering edges in edge order.  The greedy walk leaves each node by its
priority edge first, then by its other edges in edge order, and by its tree
edge last.  Enumeration runs through the arborescences toward r
include-first, always on the first edge that can join the tree (tree nodes
in joining order, their entering edges in edge order); an excluded edge's
tail must still reach the tree.  Per arborescence, each node's free
departures start sorted by edge id and step to their next lexicographic
permutation, the last node fastest.
"""

from collections.abc import Set
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import factorial, prod


class Multigraph:
    """Directed multigraph with integer edge multiplicities, stored by index.

    Node i is nodes[i] and node_index maps it back; nodes are numbered in
    construction order, the nodes argument first, then new endpoints as the
    edges name them.  Edge e, numbered in construction order, runs from node
    tail[e] to node head[e] with multiplicity mult[e].  The ids of the
    edges leaving node i are out_ids[out_start[i]:out_start[i + 1]], in edge
    order (out_edges(i)); in_start and in_ids do the same for the edges
    entering it.  Flat lists rather than one list per node
    keep a large graph down to a handful of Python objects.

    Construction order is the tie-breaking order for every deterministic
    choice downstream.  gamma, the {(u, v): multiplicity} dict over node
    names, is a view for callers; graphs built by from_indexed spell it out
    on first use, and the solvers never read it.  Instances are frozen after
    construction by convention; nothing in this package mutates them.
    """

    __slots__ = (
        "nodes", "node_index", "tail", "head", "mult",
        "out_start", "out_ids", "in_start", "in_ids", "_gamma",
    )

    def __init__(self, edges, nodes=()):
        node_list = []
        node_index = {}
        gamma = {}
        for u in nodes:
            if u not in node_index:
                node_index[u] = len(node_list)
                node_list.append(u)
        for u, v, g in edges:
            if u == v:
                raise ValueError("self-loop %r is not allowed" % (u,))
            if g < 1:
                raise ValueError("multiplicity must be >= 1, got %r" % (g,))
            e = (u, v)
            if e in gamma:
                raise ValueError("duplicate edge %r" % (e,))
            for w in e:
                if w not in node_index:
                    node_index[w] = len(node_list)
                    node_list.append(w)
            gamma[e] = g
        index = node_index.__getitem__
        tail = [index(u) for u, _ in gamma]
        head = [index(v) for _, v in gamma]
        self._fill(node_list, node_index, tail, head, list(gamma.values()))
        self._gamma = gamma

    @classmethod
    def from_indexed(cls, nodes, node_index, tail, head, mult):
        """A graph over nodes already numbered; the lists are kept, not copied.

        The caller guarantees what __init__ checks: node_index inverts
        nodes, tail and head hold node numbers, no edge is a self-loop, no
        (tail, head) pair repeats, and every multiplicity is >= 1.
        """
        g = cls.__new__(cls)
        g._fill(nodes, node_index, tail, head, mult)
        return g

    def _fill(self, nodes, node_index, tail, head, mult):
        self.nodes = nodes
        self.node_index = node_index
        self.tail = tail
        self.head = head
        self.mult = mult
        self.out_start, self.out_ids = _grouped(tail, len(nodes))
        self.in_start, self.in_ids = _grouped(head, len(nodes))
        self._gamma = None

    @property
    def gamma(self) -> dict:
        """{(u, v): multiplicity} over node names, in edge order."""
        if self._gamma is None:
            self._gamma = dict(zip(self.edges(), self.mult))
        return self._gamma

    def edges(self):
        """The (u, v) pairs of all edges, in edge order."""
        nodes = self.nodes
        return [(nodes[u], nodes[v]) for u, v in zip(self.tail, self.head)]

    def edge_id(self, u, v):
        """The id of the edge from node u to node v (by name), or None."""
        i = self.node_index.get(u)
        j = self.node_index.get(v)
        if i is None or j is None:
            return None
        head = self.head
        for e in self.out_edges(i):
            if head[e] == j:
                return e
        return None

    def out_edges(self, i):
        """Ids of the edges leaving node number i, in edge order."""
        return self.out_ids[self.out_start[i] : self.out_start[i + 1]]

    def total_multiplicity(self) -> int:
        return sum(self.mult)

    def active_nodes(self):
        """Nodes touching at least one edge, in node order."""
        nodes = self.nodes
        return [nodes[i] for i in _active(self)]


def _grouped(keys, size):
    """(start, ids): the ids e with keys[e] == i are ids[start[i]:start[i + 1]].

    The sort is stable, so each group keeps edge order.
    """
    start = [0] * (size + 1)
    for k in keys:
        start[k + 1] += 1
    return list(accumulate(start)), sorted(range(len(keys)), key=keys.__getitem__)


def _active(g: Multigraph):
    """Numbers of the nodes touching at least one edge, ascending."""
    out, inn = g.out_start, g.in_start
    return [i for i in range(len(g.nodes)) if out[i] < out[i + 1] or inn[i] < inn[i + 1]]


def _pair(g: Multigraph, e: int):
    """Edge e as its (u, v) pair of node names."""
    return (g.nodes[g.tail[e]], g.nodes[g.head[e]])


class EulerCycle:
    """A cycle as the sequence of edges traversed, starting at start.

    arcs is the tuple of (u, v) pairs.  Cycles that the solvers return hold
    the edge ids of their graph instead and spell arcs out on first use.
    Two cycles are equal when their starts and arcs are.
    """

    __slots__ = ("start", "_arcs", "_graph", "_ids")

    def __init__(self, start, arcs):
        self.start = start
        self._arcs = tuple(arcs)
        self._graph = None
        self._ids = None

    @classmethod
    def _of(cls, g: Multigraph, start, ids: tuple):
        cycle = cls.__new__(cls)
        cycle.start = start
        cycle._arcs = None
        cycle._graph = g
        cycle._ids = ids
        return cycle

    @property
    def arcs(self) -> tuple:
        if self._arcs is None:
            g = self._graph
            nodes, tail, head = g.nodes, g.tail, g.head
            self._arcs = tuple((nodes[tail[e]], nodes[head[e]]) for e in self._ids)
        return self._arcs

    def edge_ids(self, g: Multigraph) -> tuple:
        """The cycle as edge ids of g; KeyError for an arc that g lacks."""
        if self._graph is g:
            return self._ids
        ids = []
        for u, v in self.arcs:
            e = g.edge_id(u, v)
            if e is None:
                raise KeyError((u, v))
            ids.append(e)
        return tuple(ids)

    def __eq__(self, other):
        if not isinstance(other, EulerCycle):
            return NotImplemented
        return self.start == other.start and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.start, self.arcs))

    def __repr__(self):
        return "EulerCycle(start=%r, arcs=%r)" % (self.start, self.arcs)

    def __len__(self):
        return len(self._ids if self._arcs is None else self._arcs)

    def __iter__(self):
        return iter(self.arcs)


class PrioritySet(Set):
    """A well-formed priority set of one graph, resolved to edge ids.

    first[i] is the id of the priority edge leaving node i, or -1.  The
    constructor checks the set once: every edge has multiplicity 1 and no
    two leave the same node.  As a set it holds (u, v) pairs, so it compares
    equal to a set of pairs; the solvers read first directly.
    """

    __slots__ = ("graph", "first", "size")

    def __init__(self, g: Multigraph, edge_ids):
        first = [-1] * len(g.nodes)
        size = 0
        for e in edge_ids:
            if g.mult[e] != 1:
                raise ValueError("priority edge %r must have multiplicity 1" % (_pair(g, e),))
            u = g.tail[e]
            if first[u] >= 0:
                raise ValueError("two priority edges leave node %r" % (g.nodes[u],))
            first[u] = e
            size += 1
        self.graph = g
        self.first = first
        self.size = size

    @classmethod
    def resolve(cls, g: Multigraph, f):
        """f as a PrioritySet of g; ValueError unless it is well formed."""
        if isinstance(f, cls) and f.graph is g:
            return f
        ids = []
        for u, v in f:
            e = g.edge_id(u, v)
            if e is None:
                raise ValueError("priority edge %r is not an edge" % ((u, v),))
            ids.append(e)
        return cls(g, ids)

    def __contains__(self, pair):
        g = self.graph
        e = g.edge_id(*pair)
        return e is not None and self.first[g.tail[e]] == e

    def __iter__(self):
        g = self.graph
        return (_pair(g, e) for e in self.first if e >= 0)

    def __len__(self):
        return self.size

    __hash__ = Set._hash

    def __repr__(self):
        return "PrioritySet(%r)" % (set(self),)


def demote_priorities(g: Multigraph, f):
    """Drop priority from every edge that is its tail's only out-edge.

    Such an edge is trivially the first departure whenever the node departs
    at all, so dropping it changes no answers.  ValueError unless f is a
    well-formed priority set of g.
    """
    return frozenset(_pair(g, e) for e in _demoted(g, f) if e >= 0)


def _demoted(g: Multigraph, f):
    """prio[i]: the id of node i's priority edge after demotion, or -1."""
    first = PrioritySet.resolve(g, f).first
    start = g.out_start
    return [e if e >= 0 and start[i + 1] - start[i] > 1 else -1 for i, e in enumerate(first)]


def _balanced(g: Multigraph) -> bool:
    """In-multiplicity equals out-multiplicity at every node."""
    balance = [0] * len(g.nodes)
    for u, v, m in zip(g.tail, g.head, g.mult):
        balance[u] += m
        balance[v] -= m
    return not any(balance)


def _prepare(g: Multigraph, f, r):
    """The checked instance (prio, ri, tree), or None if no cycle respects f.

    prio[i] is the id of node i's priority edge after demotion, or -1; a
    malformed f raises ValueError.  ri is the number of node r, and tree[u]
    the edge by which u leaves toward ri in a breadth-first spanning tree
    that avoids priority edges (-1 for ri and for nodes without edges).  A
    graph without edges passes with ri and tree None: the empty cycle is its
    only one.  Otherwise None comes back when a node is unbalanced or an
    edge-touching node cannot reach r without priority edges (r itself
    touching no edge included).  The last case rules out every respecting
    cycle, whose last exits would form such a tree, and leaves nothing to
    count: this is the only check that solve, count and enumerate need.
    """
    prio = _demoted(g, f)
    if not g.mult:
        return prio, None, None
    ri = g.node_index.get(r)
    if ri is None or not _balanced(g):
        return None
    tree, reached = _tree_toward(g, ri, prio)
    if reached != len(_active(g)):
        return None
    return prio, ri, tree


def check_eulerian(g: Multigraph, r) -> bool:
    """True iff an Eulerian cycle from r exists, ignoring priorities.

    Balance (in-multiplicity equals out-multiplicity everywhere) plus
    connectivity of the edge-touching nodes, which must include r unless the
    graph has no edges at all.
    """
    return _prepare(g, (), r) is not None


def _tree_toward(g: Multigraph, ri, prio):
    """BFS from node ri over entering edges, skipping priority ones.

    Returns (tree, reached): tree[u] is the edge by which u was first
    reached, the one it leaves by toward ri (-1 for ri and unreached
    nodes), and reached counts the nodes reached, ri included.
    """
    tail, start, ids = g.tail, g.in_start, g.in_ids
    tree = [-1] * len(g.nodes)
    queue = [ri]
    for w in queue:  # the queue grows while it is read
        for e in ids[start[w] : start[w + 1]]:
            u = tail[e]
            if tree[u] < 0 and u != ri and prio[u] != e:
                tree[u] = e
                queue.append(u)
    return tree, len(queue)


def is_valid_cycle(g: Multigraph, f, r, cycle: EulerCycle) -> bool:
    """Independent validator: chained at r, exact edge counts, respects f.

    Shares no state with the solver or the enumerator; tests lean on it.
    It reads the graph and the cycle by name, through gamma and arcs.
    """
    if cycle.start != r:
        return False
    gamma = g.gamma
    at = r
    used = {}
    first_departure = {}
    for e in cycle.arcs:
        if e not in gamma or e[0] != at:
            return False
        if e[0] not in first_departure:
            first_departure[e[0]] = e
        used[e] = used.get(e, 0) + 1
        at = e[1]
    if at != r:
        return False
    if used != gamma and (used or gamma):
        return False
    for e in f:
        # Nothing out of e's tail may precede e.  Tails that never depart
        # cannot occur here because e itself must be used.
        if first_departure.get(e[0]) != e:
            return False
    return True


def solve_ecp(g: Multigraph, f, r) -> EulerCycle | None:
    """One respecting Eulerian cycle from r, or None if none exists.

    Walk from r taking the unused priority edge first when the current node
    has one, otherwise the next unused non-tree edge, and the spanning-tree
    edge only as last resort.  The tree is oriented toward r and avoids
    priority edges, which is exactly what makes the greedy walk complete.
    """
    prepared = _prepare(g, f, r)
    if prepared is None:
        return None
    if not g.mult:
        return EulerCycle(r, ())
    prio, ri, tree = prepared

    # Each node's out-edges in walk order, ended by the sentinel id m:
    # priority edge, other edges in edge order, tree edge.  Node v's run
    # starts at out_start[v] + v; ptr[v] is v's next candidate, and the
    # walk only ever skips used-up edges past it.
    m = len(g.mult)
    order = []
    push = order.append
    start, ids = g.out_start, g.out_ids
    ptr = [s + v for v, s in enumerate(start)]
    for v, (p, t) in enumerate(zip(prio, tree)):
        if p >= 0:
            push(p)
        for e in ids[start[v] : start[v + 1]]:
            if e != p and e != t:
                push(e)
        if t >= 0:
            push(t)
        push(m)
    remaining = g.mult + [1]

    arcs = []
    append = arcs.append
    head = g.head
    v = ri
    for _ in range(g.total_multiplicity()):
        i = ptr[v]
        e = order[i]
        while not remaining[e]:
            i += 1
            e = order[i]
        if e == m:
            return None
        ptr[v] = i
        remaining[e] -= 1
        append(e)
        v = head[e]
    assert v == ri, "a balanced graph's full walk is closed"
    return EulerCycle._of(g, r, tuple(arcs))


def count_ecp(g: Multigraph, f, r) -> int:
    """Exact number of respecting Eulerian cycles from r.

    BEST-style product over the priority-free graph: free departure
    orderings per node (parallel copies collapsed) times the weighted count
    of arborescences toward r, the latter a matrix-tree determinant.
    """
    prepared = _prepare(g, f, r)
    if prepared is None:
        return 0
    if not g.mult:
        return 1
    prio, ri, _ = prepared
    active = _active(g)
    out2 = [[e for e in g.out_edges(v) if e != p] for v, p in enumerate(prio)]
    mult = g.mult
    deg = [sum(mult[e] for e in es) for es in out2]
    # After demotion every edge-touching node keeps a priority-free
    # out-edge, so degrees are positive whenever balance held.
    num = deg[ri]
    den = 1
    for v in active:
        num *= factorial(deg[v] - 1)
        for e in out2[v]:
            den *= factorial(mult[e])
    total = num * _arborescence_sum(g, active, out2, deg, ri)
    assert total % den == 0, "count lost exactness, which cannot happen"
    return total // den


_MERSENNE = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213,
             19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091, 756839, 859433, 1257787)


def _arborescence_sum(g: Multigraph, active, out2, deg, ri):
    """Sum over arborescences toward ri of the product of edge weights.

    That is the determinant of the weighted Laplacian of out2 without ri's
    row and column, at most the product of the degrees deg (an arborescence
    picks one out-edge per node), so it is exact modulo the first Mersenne
    prime 2**p - 1, p in _MERSENNE, above that bound with no zero pivot.
    """
    bound = prod(deg[v] for v in active) // deg[ri]
    for q in [(1 << p) - 1 for p in _MERSENNE if p > bound.bit_length()]:
        rows = {v: {g.head[e]: -g.mult[e] for e in out2[v] if g.head[e] != ri} | {v: deg[v]}
                for v in active if v != ri}
        value = _det_sparse(rows, q)
        if value is not None:
            assert 0 < value <= bound, "every node reaches ri, so an arborescence exists"
            return value
    raise OverflowError("no prime above a bound of %d bits" % bound.bit_length())


def _det_sparse(rows, q):
    """Determinant modulo the prime q of sparse rows, or None if a pivot is 0.

    rows[i] maps column j to entry (i, j), diagonal included; rows is used
    up.  Pivots go by least Markowitz cost, the row's off-diagonal entries
    times the other rows with an entry in the column, refreshed lazily.
    """
    cols = {v: set() for v in rows}  # cols[j]: the other rows with an entry at j
    for i, row in rows.items():
        for j in row.keys() - {i}:
            cols[j].add(i)
    queue = [((len(row) - 1) * len(cols[v]), v) for v, row in rows.items()]
    heapify(queue)
    det = 1
    while queue:
        c, k = heappop(queue)
        now = (len(rows[k]) - 1) * len(cols[k])
        if now > c:
            heappush(queue, (now, k))
            continue
        pivot_row = rows.pop(k)
        pivot = pivot_row.pop(k) % q
        if not pivot:
            return None
        det = det * pivot % q
        inv = pow(pivot, -1, q)
        for j in pivot_row:
            cols[j].discard(k)
        for i in cols.pop(k):
            row = rows[i]
            f = row.pop(k) * inv % q
            for j, a in pivot_row.items():
                if j not in row:
                    cols[j].add(i)
                row[j] = (row.get(j, 0) - f * a) % q
    return det


def enumerate_ecp(g: Multigraph, f, r):
    """Yield every respecting Eulerian cycle from r exactly once.

    Cycles decompose uniquely into (arborescence of last exits, free
    departure orderings per node), so the stream walks all arborescences
    toward r that avoid priority edges, and for each one all per-node
    orderings with the tree edge's final copy pinned last and the priority
    edge pinned first.  Emission order is fixed; solutions are yielded one
    at a time with working state linear in the graph size.
    """
    prepared = _prepare(g, f, r)
    if prepared is None:
        return
    if not g.mult:
        yield EulerCycle(r, ())
        return
    prio, ri, _ = prepared
    active = _active(g)
    mult, head, start, ids = g.mult, g.head, g.out_start, g.out_ids
    begin = [0] * len(g.nodes)  # v's departures are seq[begin[v]:], one per copy

    for tree in _arborescences(g, prio, ri, len(active)):
        seq = []
        free = []  # (lo, hi) of stretches with more than one ordering
        for v in active:
            p, t = prio[v], tree[v]
            begin[v] = len(seq)
            if p >= 0:
                seq.append(p)
            lo = len(seq)
            for e in ids[start[v] : start[v + 1]]:
                if e != p:
                    seq.extend([e] * (mult[e] - (e == t)))
            hi = len(seq)
            if t >= 0:
                seq.append(t)
            if lo < hi and seq[lo] != seq[hi - 1]:
                free.append((lo, hi))
        while True:
            ptr = begin[:]
            cycle = []
            v = ri
            for _ in range(len(seq)):
                e = seq[ptr[v]]
                ptr[v] += 1
                cycle.append(e)
                v = head[e]
            assert v == ri
            yield EulerCycle._of(g, r, tuple(cycle))
            # the last node's stretch steps fastest; any() stops at the
            # first stretch that steps without wrapping around
            if not any(_next_permutation(seq, lo, hi) for lo, hi in reversed(free)):
                break


def _next_permutation(a, lo, hi) -> bool:
    """Step a[lo:hi] to its next distinct permutation in lexicographic order.

    After the last one it wraps around to the first, sorted one and returns
    False.
    """
    i = hi - 2
    while i >= lo and a[i] >= a[i + 1]:
        i -= 1
    if i >= lo:
        j = hi - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
    a[i + 1 : hi] = a[i + 1 : hi][::-1]
    return i >= lo


def _arborescences(g: Multigraph, prio, ri, n_active):
    """All arborescences toward node ri that avoid priority edges.

    Include/exclude enumeration with a reachability prune, so each tree is
    produced exactly once and dead branches are cut early.  The prune is
    local: every active node reaches the tree before an edge e is excluded
    (_prepare checked it for {ri}), so the branch lives iff tail[e] still
    does.  Each step picks the first edge, in scan order, whose head is in
    the tree, whose tail is not, and which is neither a priority edge nor
    excluded.  Candidates only vanish as the search goes deeper, so the scan
    resumes where the step above found its edge.  The search runs on an
    explicit stack.  Every tree is the same list, tree[u] the edge leaving u
    (-1 for ri and nodes without edges), valid until the next one is asked
    for.
    """
    tail, head, in_start, in_ids = g.tail, g.head, g.in_start, g.in_ids
    tree = [-1] * len(g.nodes)
    in_tree = bytearray(len(g.nodes))
    in_tree[ri] = 1
    order = [ri]  # tree nodes in the order they joined
    excluded = bytearray(len(g.mult))  # edges the current branch leaves out

    def pick(i, k):
        """(i, k) of the first candidate from in_ids[k] on, or None.

        in_ids[k] enters order[i]; the scan goes on through later tree nodes.
        """
        while True:
            end = in_start[order[i] + 1]
            while k < end:
                e = in_ids[k]
                u = tail[e]
                if not in_tree[u] and prio[u] != e and not excluded[e]:
                    return i, k
                k += 1
            i += 1
            if i == len(order):
                return None
            k = in_start[order[i]]

    def reaches_tree(u):
        """Whether u reaches a tree node by edges neither priority nor excluded."""
        seen, queue = {u}, [u]
        for w in queue:  # the queue grows while it is read
            for e in g.out_edges(w):
                v = head[e]
                if e != prio[w] and not excluded[e] and v not in seen:
                    if in_tree[v]:
                        return True
                    seen.add(v)
                    queue.append(v)
        return False

    # at is where the next pick scans from, None while backing up; a frame
    # (i, k, included) holds the edge picked at in_ids[k] and its branch.
    frames = []
    at = (0, in_start[ri])
    while True:
        if at is not None and len(order) == n_active:
            yield tree
            at = None
        if at is not None:
            at = pick(*at)
        if at is not None:  # include the picked edge
            e = in_ids[at[1]]
            u = tail[e]
            tree[u] = e
            in_tree[u] = 1
            order.append(u)
            frames.append((*at, True))
            continue
        if not frames:
            return
        i, k, included = frames.pop()
        if included:  # take it out again and exclude it
            in_tree[order.pop()] = 0
            excluded[in_ids[k]] = 1
            frames.append((i, k, False))
            if reaches_tree(tail[in_ids[k]]):
                at = (i, k)
        else:
            excluded[in_ids[k]] = 0
