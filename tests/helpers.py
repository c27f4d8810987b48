"""Naive reference implementations the tests trust over the package.

Everything here goes straight from a definition, with no sharing of code or
ideas with the real implementations: quadratic scans, exhaustive
backtracking.  Slow on purpose.
"""

from itertools import product
from math import factorial


def naive_heap(text: str):
    """(parent, label, node_string, links) by the defining shortest-new-prefix rule."""
    by_string = {"": 0}
    parent = {}
    label = {}
    node_string = {0: ""}
    for i in range(1, len(text) + 1):
        suffix = text[i - 1 :]
        for d in range(1, len(suffix) + 1):
            w = suffix[:d]
            if w not in by_string:
                by_string[w] = i
                parent[i] = by_string[w[:-1]]
                label[i] = w[-1]
                node_string[i] = w
                break
        else:
            raise AssertionError("no fresh prefix; text must be invalid: %r" % text)
    links = {i: by_string[node_string[i][1:]] for i in range(1, len(text) + 1)}
    return parent, label, node_string, links


def all_valid_texts(letters: str, max_len: int):
    """Every text over letters, length 0..max_len, whose last letter is unique."""
    yield ""
    for n in range(1, max_len + 1):
        for tup in product(letters, repeat=n):
            if tup[-1] not in tup[:-1]:
                yield "".join(tup)


def brute_ecp_cycles(gamma: dict, f, r, cap: int = 500000):
    """All Eulerian arc sequences from r that respect the priorities.

    gamma maps (u, v) to multiplicity.  A node's priority edge, if any, must
    be its first departure.  Exhaustive backtracking; raises if the search
    would overrun cap leaves (so a miscooked test fails instead of hanging).
    """
    out = {}
    for (u, v), m in gamma.items():
        assert u != v and m >= 1
        out.setdefault(u, []).append((u, v))
    for u in out:
        out[u].sort(key=repr)
    prio = {}
    for u, v in f:
        assert gamma.get((u, v), 0) == 1
        assert u not in prio
        prio[u] = (u, v)
    remaining = dict(gamma)
    total = sum(gamma.values())
    found = []
    seq = []
    departed = set()

    def rec(at):
        if len(found) >= cap:
            raise AssertionError("brute-force cap hit")
        if len(seq) == total:
            if at == r:
                found.append(tuple(seq))
            return
        first = at not in departed
        if first and at in prio and remaining.get(prio[at], 0) > 0:
            choices = [prio[at]]
        else:
            choices = [e for e in out.get(at, ()) if remaining[e] > 0]
        if first:
            departed.add(at)
        for e in choices:
            remaining[e] -= 1
            seq.append(e)
            rec(e[1])
            seq.pop()
            remaining[e] += 1
        if first:
            departed.discard(at)

    rec(r)
    return found


def random_walk_instance(rng, max_nodes: int = 5, max_steps: int = 8):
    """Eulerian-by-construction instance: a random closed walk plus legal priorities."""
    k = rng.randint(1, max_nodes)
    r = 0
    gamma = {}
    at = r
    for _ in range(rng.randint(0, max_steps)):
        if k == 1:
            break
        nxt = rng.randrange(k)
        if nxt == at:
            nxt = (at + 1) % k
        gamma[(at, nxt)] = gamma.get((at, nxt), 0) + 1
        at = nxt
    if at != r:
        gamma[(at, r)] = gamma.get((at, r), 0) + 1
    return gamma, random_priorities(rng, gamma), r


def random_priorities(rng, gamma: dict):
    """Legal priority set: at most one multiplicity-1 out-edge per tail."""
    by_tail = {}
    for (u, v), m in gamma.items():
        if m == 1:
            by_tail.setdefault(u, []).append((u, v))
    f = set()
    for u, singles in by_tail.items():
        if rng.random() < 0.5:
            f.add(rng.choice(singles))
    return f


def random_soup(rng, max_nodes: int = 5, max_arcs: int = 8):
    """Arbitrary arc soup; usually not Eulerian at all."""
    k = rng.randint(1, max_nodes)
    gamma = {}
    for _ in range(rng.randint(0, max_arcs)):
        u, v = rng.randrange(k), rng.randrange(k)
        if u != v:
            gamma[(u, v)] = gamma.get((u, v), 0) + 1
    return gamma, random_priorities(rng, gamma), 0


def det_bareiss(m):
    """Exact integer determinant, fraction-free Bareiss elimination (dense, cubic)."""
    size = len(m)
    if size == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[size - 1][size - 1]


def best_count(gamma: dict, f, r):
    """Respecting Eulerian cycles from r by the BEST theorem, on a dense minor.

    Priority edges that are their tail's only out-edge lose priority; the
    others leave both the free departure orderings and the arborescences.
    The arborescence sum is the Bareiss determinant of the Laplacian minor
    of the remaining edges, rows and columns in order of first appearance.
    """
    if not gamma:
        return 1
    out = {}
    balance = {}
    for (u, v), m in gamma.items():
        out.setdefault(u, []).append((u, v))
        balance[u] = balance.get(u, 0) + m
        balance[v] = balance.get(v, 0) - m
    if r not in balance or any(balance.values()):
        return 0
    kept = {u: [e for e in es if e not in f or len(es) == 1] for u, es in out.items()}
    seen = {r}
    todo = [r]
    while todo:  # who reaches r over kept edges
        w = todo.pop()
        for u, es in kept.items():
            if u not in seen and any(v == w for _, v in es):
                seen.add(u)
                todo.append(u)
    if len(seen) != len(balance):
        return 0
    deg = {u: sum(gamma[e] for e in es) for u, es in kept.items()}
    index = {v: i for i, v in enumerate(v for v in balance if v != r)}
    minor = [[0] * len(index) for _ in index]
    for u, i in index.items():
        for _, v in kept[u]:
            minor[i][i] += gamma[(u, v)]
            if v in index:
                minor[i][index[v]] -= gamma[(u, v)]
    num = deg[r] * det_bareiss(minor)
    den = 1
    for u, es in kept.items():
        num *= factorial(deg[u] - 1)
        for e in es:
            den *= factorial(gamma[e])
    assert num % den == 0
    return num // den
