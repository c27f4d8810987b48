import random

import pytest

from posheap import (
    Alphabet,
    EulerCycle,
    Multigraph,
    build_position_heap,
    build_trace_graph,
    check_eulerian,
    compute_sigma,
    count_ecp,
    demote_priorities,
    enumerate_ecp,
    is_valid_cycle,
    random_valid_text,
    reconstruct_suffix_links,
    solve_ecp,
)
from posheap import ecp
from helpers import (
    best_count,
    brute_ecp_cycles,
    random_priorities,
    random_soup,
    random_walk_instance,
)


def graph(gamma, nodes=()):
    return Multigraph([(u, v, m) for (u, v), m in gamma.items()], nodes=nodes)


TRIANGLE = {("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 2, ("a", "c"): 1}
TRIANGLE_F = {("a", "c")}


def test_triangle_with_chord_unique_cycle():
    g = graph(TRIANGLE)
    want = (("a", "c"), ("c", "a"), ("a", "b"), ("b", "c"), ("c", "a"))
    got = solve_ecp(g, TRIANGLE_F, "a")
    assert got == EulerCycle("a", want)
    assert is_valid_cycle(g, TRIANGLE_F, "a", got)
    assert count_ecp(g, TRIANGLE_F, "a") == 1
    assert [c.arcs for c in enumerate_ecp(g, TRIANGLE_F, "a")] == [want]
    assert brute_ecp_cycles(TRIANGLE, TRIANGLE_F, "a") == [want]
    # without the priority there are more cycles, emitted in a fixed order
    assert count_ecp(g, set(), "a") == len(brute_ecp_cycles(TRIANGLE, set(), "a"))
    assert [c.arcs for c in enumerate_ecp(g, set(), "a")] == [
        (("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("c", "a")),
        want,
    ]


def test_star_orderings():
    k = 3
    gamma = {}
    for i in range(1, k + 1):
        gamma[("r", i)] = 1
        gamma[(i, "r")] = 1
    g = graph(gamma)
    assert count_ecp(g, set(), "r") == 6
    cycles = list(enumerate_ecp(g, set(), "r"))
    for c in cycles:
        assert is_valid_cycle(g, set(), "r", c)
    # r's departure orders, stepped lexicographically in edge order
    orders = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    assert [c.arcs for c in cycles] == [
        (("r", a), (a, "r"), ("r", b), (b, "r"), ("r", c), (c, "r")) for a, b, c in orders
    ]


def test_empty_graph():
    g = Multigraph([], nodes=["r"])
    assert solve_ecp(g, set(), "r") == EulerCycle("r", ())
    assert count_ecp(g, set(), "r") == 1
    assert [c.arcs for c in enumerate_ecp(g, set(), "r")] == [()]
    assert is_valid_cycle(g, set(), "r", EulerCycle("r", ()))


def test_multigraph_validation():
    with pytest.raises(ValueError):
        Multigraph([("a", "a", 1)])
    with pytest.raises(ValueError):
        Multigraph([("a", "b", 0)])
    with pytest.raises(ValueError):
        Multigraph([("a", "b", 1), ("a", "b", 2)])


def test_priority_set_validation():
    g = graph({("a", "b"): 2, ("b", "a"): 2, ("a", "c"): 1, ("c", "a"): 1})
    with pytest.raises(ValueError):
        solve_ecp(g, {("a", "z")}, "a")
    with pytest.raises(ValueError):
        solve_ecp(g, {("a", "b")}, "a")  # multiplicity 2
    with pytest.raises(ValueError):
        solve_ecp(g, {("a", "c"), ("a", "b")}, "a")


def test_demotion_drops_only_sole_out_edges():
    g = graph({("a", "b"): 1, ("b", "a"): 1, ("a", "c"): 1, ("c", "a"): 1})
    f = {("a", "c"), ("b", "a"), ("c", "a")}
    assert demote_priorities(g, f) == {("a", "c")}


def test_eulerian_check():
    assert check_eulerian(graph({("a", "b"): 1, ("b", "a"): 1}), "a")
    assert not check_eulerian(graph({("a", "b"): 2, ("b", "a"): 1}), "a")
    # balanced but disconnected
    two = graph({("a", "b"): 1, ("b", "a"): 1, ("c", "d"): 1, ("d", "c"): 1})
    assert not check_eulerian(two, "a")
    # r isolated from the edges
    assert not check_eulerian(graph({("a", "b"): 1, ("b", "a"): 1}, nodes=["z"]), "z")


def test_validator_rejects_mutations():
    g = graph(TRIANGLE)
    cycle = solve_ecp(g, TRIANGLE_F, "a")
    assert is_valid_cycle(g, TRIANGLE_F, "a", cycle)
    assert not is_valid_cycle(g, TRIANGLE_F, "a", EulerCycle("a", cycle.arcs[:-1]))
    assert not is_valid_cycle(g, TRIANGLE_F, "b", cycle)
    rotated = EulerCycle("c", cycle.arcs[1:] + cycle.arcs[:1])
    assert not is_valid_cycle(g, TRIANGLE_F, "a", rotated)
    # a's first departure is no longer the priority edge
    swapped = EulerCycle("a", (("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("c", "a")))
    assert not is_valid_cycle(g, TRIANGLE_F, "a", swapped)
    # same arcs would otherwise chain fine
    assert is_valid_cycle(g, set(), "a", swapped)


def _assert_instance_agrees(gamma, f, r):
    g = graph(gamma)
    brute = brute_ecp_cycles(gamma, f, r)
    got = solve_ecp(g, f, r)
    assert count_ecp(g, f, r) == len(brute)
    enumerated = [c.arcs for c in enumerate_ecp(g, f, r)]
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == set(brute)
    if brute:
        assert got is not None
        assert is_valid_cycle(g, f, r, got)
        assert got.arcs in set(brute)
    else:
        assert got is None
    # demotion must not change anything observable
    f2 = demote_priorities(g, f)
    assert count_ecp(g, f2, r) == len(brute)
    assert solve_ecp(g, f2, r) == got
    assert [c.arcs for c in enumerate_ecp(g, f2, r)] == enumerated


def test_walk_instances_match_brute_force():
    rng = random.Random(20260801)
    for _ in range(250):
        gamma, f, r = random_walk_instance(rng)
        _assert_instance_agrees(gamma, f, r)


def test_soup_instances_match_brute_force():
    rng = random.Random(20260802)
    for _ in range(250):
        gamma, f, r = random_soup(rng)
        _assert_instance_agrees(gamma, f, r)


def test_enumeration_is_deterministic():
    rng = random.Random(5)
    for _ in range(20):
        gamma, f, r = random_walk_instance(rng)
        g = graph(gamma)
        once = [c.arcs for c in enumerate_ecp(g, f, r)]
        again = [c.arcs for c in enumerate_ecp(g, f, r)]
        assert once == again


def test_counts_stay_exact_with_parallel_bundles():
    # two fat parallel bundles force big factorials and a big division
    gamma = {("r", "x"): 6, ("x", "r"): 6, ("r", "y"): 2, ("y", "r"): 2}
    g = graph(gamma)
    assert count_ecp(g, set(), "r") == len(brute_ecp_cycles(gamma, set(), "r"))


# --- the determinant at sizes where its elimination order matters -------------


def _fat_walk(rng, size, steps):
    """A closed random walk from 0 over size nodes; some of its loops run again."""
    walk = [0]
    for _ in range(steps):
        walk.append((walk[-1] + rng.randrange(1, size)) % size)
    if walk[-1] != 0:
        walk.append(0)
    for _ in range(steps // 5):
        i = rng.randrange(len(walk))
        j = next((j for j in range(i + 1, min(len(walk), i + 60)) if walk[j] == walk[i]), None)
        if j is not None:
            walk[j:j] = walk[i:j]
    gamma = {}
    for e in zip(walk, walk[1:]):
        gamma[e] = gamma.get(e, 0) + 1
    return gamma


def _cycle_soup(rng, size):
    """One cycle through all size nodes plus short cycles, some run 2 or 3 times."""
    gamma = {}
    rings = [rng.sample(range(size), size)]
    rings += [rng.sample(range(size), rng.randint(2, 6)) for _ in range(size // 2)]
    for ring in rings:
        times = rng.choice((1, 1, 2, 3))
        for e in zip(ring, ring[1:] + ring[:1]):
            gamma[e] = gamma.get(e, 0) + times
    return gamma


def test_count_matches_dense_reference_on_large_instances():
    rng = random.Random(20261020)
    sizes, fat, positive = [], 0, 0
    for size in (20, 40, 80, 140, 250):
        for gamma in (_fat_walk(rng, size, 3 * size), _cycle_soup(rng, size)):
            g = graph(gamma)
            sizes.append(len(g.active_nodes()))
            fat += sum(m > 1 for m in gamma.values())
            for f in (set(), random_priorities(rng, gamma)):
                want = best_count(gamma, f, 0)
                assert count_ecp(g, f, 0) == want
                positive += want > 0
    assert min(sizes) <= 20 and max(sizes) >= 240
    assert fat > 100 and positive >= 18


def test_count_matches_dense_reference_on_trace_graphs():
    rng = random.Random(7)
    for n, letters in [(100, "abc"), (140, "abcde"), (180, "abc"), (220, "abcd"), (300, "abc")]:
        text = random_valid_text(rng, Alphabet(letters), n)
        s = build_position_heap(text).to_sketch(numbered=False, labeled=True, links=False)
        links = reconstruct_suffix_links(s)
        tg = build_trace_graph(s, links, compute_sigma(s, links))
        got = count_ecp(tg.graph, tg.priority, tg.root)
        assert got >= 1
        assert got == best_count(tg.graph.gamma, set(tg.priority), tg.root)


def test_vanishing_pivot_moves_to_next_prime(monkeypatch):
    rows = {0: {0: 3, 1: -1}, 1: {0: -1, 1: 2}}  # determinant 5
    assert ecp._det_sparse({v: dict(r) for v, r in rows.items()}, 3) is None
    assert ecp._det_sparse({v: dict(r) for v, r in rows.items()}, 7) == 5
    tried = []

    def first_prime_fails(rows, q):
        tried.append(q)
        return None if len(tried) == 1 else real(rows, q)

    real = ecp._det_sparse
    monkeypatch.setattr(ecp, "_det_sparse", first_prime_fails)
    g = graph(TRIANGLE)
    assert count_ecp(g, set(), "a") == len(brute_ecp_cycles(TRIANGLE, set(), "a"))
    assert tried == [2**61 - 1, 2**89 - 1]
