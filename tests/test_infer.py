import random
from itertools import islice

import pytest

from posheap import (
    Alphabet,
    AlphabetTooSmall,
    HeapSketch,
    ProblemKind,
    build_position_heap,
    count_p2,
    count_p3,
    count_p4,
    enum_p2,
    enum_p3,
    enum_p4,
    infer_p1,
    infer_p2,
    infer_p3,
    infer_p4,
)
from posheap.oracle import brute_force_texts, canonical_code, text_matches
from helpers import all_valid_texts

AB = Alphabet("ab")
ABC = Alphabet("abc")


def sk(text, **kw):
    return build_position_heap(text).to_sketch(**kw)


def rnd_text(rng, letters, length):
    if len(letters) == 1:
        length = min(length, 1)  # a one-letter alphabet only yields "" and that letter
    if length == 0:
        return ""
    last = rng.choice(letters)
    rest = [c for c in letters if c != last]
    return "".join(rng.choice(rest) for _ in range(length - 1)) + last


def test_problem_kind_classifier():
    full = sk("ab", numbered=True, labeled=True, links=False)
    assert ProblemKind.for_sketch(full) is ProblemKind.NUMBERED_LABELED
    assert ProblemKind.for_sketch(full.without_labels()) is ProblemKind.NUMBERED
    assert ProblemKind.for_sketch(full.without_numbers()) is ProblemKind.LABELED
    bare = sk("ab", numbered=False, labeled=False, links=True)
    assert ProblemKind.for_sketch(bare) is ProblemKind.LINKS_ONLY


# --- problem 1 ----------------------------------------------------------------


def test_p1_reference_and_empty():
    assert infer_p1(sk("abaababc", numbered=True, labeled=True, links=False)).text == "abaababc"
    empty = sk("", numbered=True, labeled=True, links=False)
    assert infer_p1(empty).text == ""


def test_p1_round_trip_random():
    rng = random.Random(1)
    for _ in range(200):
        text = rnd_text(rng, "abcd"[: rng.randint(1, 4)], rng.randint(0, 48))
        s = sk(text, numbered=True, labeled=True, links=False)
        found = infer_p1(s)
        assert found is not None and found.text == text


def test_p1_rejects_swapped_numbers():
    s = sk("aab", numbered=True, labeled=True, links=False)
    swapped = dict(s.numbering)
    a, b = s.node_by_number()[1], s.node_by_number()[2]
    swapped[a], swapped[b] = swapped[b], swapped[a]
    mutated = HeapSketch(s.root, s.edge_list, numbering=swapped)
    assert infer_p1(mutated) is None


def test_p1_rejects_invalid_spelled_text():
    # root children a twice is impossible, but so is a repeated end letter
    s = sk("ab", numbered=True, labeled=True, links=False)
    relabeled = HeapSketch(
        s.root,
        [(u, v, "a") for u, v, _ in s.edge_list],
        numbering=s.numbering,
    )
    assert infer_p1(relabeled) is None


def test_p1_needs_annotations():
    with pytest.raises(ValueError):
        infer_p1(sk("ab", numbered=False, labeled=True, links=False))


# --- problem 2 ----------------------------------------------------------------


def test_p2_exhaustive_against_oracle():
    for text in all_valid_texts("ab", 6):
        s = sk(text, numbered=True, labeled=False, links=False)
        want = brute_force_texts(s, 2, AB)
        assert count_p2(s, AB) == len(want)
        got = sorted(enum_p2(s, AB))
        assert got == want


def test_p2_formula_with_larger_alphabet():
    s = sk("abaababc", numbered=True, labeled=False, links=False)
    # 3 root children, 4 letters: 4*3*2
    assert count_p2(s, Alphabet("abcd")) == 24
    texts = list(enum_p2(s, Alphabet("abcd")))
    assert len(texts) == 24 and len(set(texts)) == 24
    for t in texts:
        assert text_matches(t, s, 2)


def test_p2_alphabet_too_small():
    s = sk("abc", numbered=True, labeled=False, links=False)
    with pytest.raises(AlphabetTooSmall):
        infer_p2(s, AB)
    with pytest.raises(AlphabetTooSmall):
        count_p2(s, AB)


def test_p2_invalid_numbering():
    # child numbered before its parent cannot be any heap
    s = HeapSketch("r", [("r", "x", None), ("x", "y", None)], numbering={"r": 0, "x": 2, "y": 1})
    assert infer_p2(s, AB) is None
    assert count_p2(s, AB) == 0
    assert list(enum_p2(s, AB)) == []
    assert brute_force_texts(s, 2, AB) == []


def test_p2_empty():
    s = sk("", numbered=True, labeled=False, links=False)
    assert infer_p2(s, AB).text == ""
    assert count_p2(s, AB) == 1
    assert list(enum_p2(s, AB)) == [""]


# --- problem 3 ----------------------------------------------------------------


def test_p3_exhaustive_against_oracle():
    for text in all_valid_texts("ab", 6):
        s = sk(text, numbered=False, labeled=True, links=False)
        want = brute_force_texts(s, 3)
        got = sorted(enum_p3(s))
        assert got == want
        assert count_p3(s) == len(want)
        assert text in want


def test_p3_random_spot_checks():
    rng = random.Random(2)
    for _ in range(100):
        text = rnd_text(rng, "abc", rng.randint(1, 30))
        s = sk(text, numbered=False, labeled=True, links=False)
        found = infer_p3(s)
        assert found is not None
        assert text_matches(found.text, s, 3)
        assert canonical_code(sk(found.text, numbered=False, labeled=True, links=False)) == canonical_code(s)


def test_p3_numbering_is_the_iso():
    s = sk("abaababc", numbered=False, labeled=True, links=False)
    found = infer_p3(s)
    h2 = build_position_heap(found.text)
    for v in s.nodes():
        path = []
        u = v
        while u != s.root:
            path.append(s.label[u])
            u = s.parent[u]
        assert "".join(reversed(path)) == h2.path_label(found.numbering[v])


def test_p3_invalid_shapes():
    dup = HeapSketch("r", [("r", "x", "a"), ("r", "y", "a")])
    no_target = HeapSketch("r", [("r", "x", "a"), ("x", "y", "b")])
    negative = HeapSketch(
        "r",
        [("r", "x1", "a"), ("r", "x2", "c"), ("r", "y", "b"), ("x1", "u1", "b"), ("x2", "u2", "b")],
    )
    for s in (dup, no_target, negative):
        assert infer_p3(s) is None
        assert count_p3(s) == 0
        assert list(enum_p3(s)) == []
        assert brute_force_texts(s, 3) == []


def test_p3_mutation_differential():
    rng = random.Random(3)
    checked_invalid = 0
    for _ in range(120):
        text = rnd_text(rng, "ab", rng.randint(2, 7))
        s = sk(text, numbered=False, labeled=True, links=False)
        victim = rng.choice([v for _, v, _ in s.edge_list])
        labels = dict(s.label)
        labels[victim] = rng.choice([c for c in "abc" if c != labels[victim]])
        mutated = s.with_labels(labels)
        want = brute_force_texts(mutated, 3, ABC)
        found = infer_p3(mutated)
        if found is None:
            assert want == []
            checked_invalid += 1
        else:
            assert found.text in want
            assert count_p3(mutated) == len(want)
    assert checked_invalid > 20  # the fuzz really exercised the reject path


def test_p3_empty():
    s = sk("", numbered=False, labeled=True, links=False)
    assert infer_p3(s).text == ""
    assert count_p3(s) == 1
    assert list(enum_p3(s)) == [""]


def test_p3_enum_deterministic():
    s = sk("abaababc", numbered=False, labeled=True, links=False)
    assert list(enum_p3(s)) == list(enum_p3(s)) == [
        "aaabbabc", "aabbaabc", "abaababc", "ababaabc", "baaababc", "baabaabc",
    ]


@pytest.mark.parametrize("n", [1000, 3000])
def test_enum_streams_long_texts(n):
    # the arborescence walk and the ordering steps must not recurse per node
    text = rnd_text(random.Random(n), "abc", n)
    labeled = sk(text, numbered=False, labeled=True, links=False)
    first = list(islice(enum_p3(labeled), 5))
    assert len(set(first)) == 5
    assert all(text_matches(t, labeled, 3) for t in first)
    linked = sk(text, numbered=False, labeled=False, links=True)
    assert len(set(islice(enum_p4(linked, ABC), 5))) == 5


# count_p3 and count_p4 of rnd_text(random.Random(1000), "abc", 1000), recorded
# from the dense Bareiss determinant that the counter used before
P3_COUNT_1000 = 997527145221564657823801779601792128230264470414321219983907366109184
P4_COUNT_1000 = 5985162871329387946942810677610752769381586822485927319903444196655104


def test_count_long_texts():
    text = rnd_text(random.Random(1000), "abc", 1000)
    assert count_p3(sk(text, numbered=False, labeled=True, links=False)) == P3_COUNT_1000
    assert count_p4(sk(text, numbered=False, labeled=False, links=True), ABC) == P4_COUNT_1000
    text = rnd_text(random.Random(3000), "abc", 3000)
    assert count_p3(sk(text, numbered=False, labeled=True, links=False)) >= 1
    assert count_p4(sk(text, numbered=False, labeled=False, links=True), ABC) >= 1


# --- problem 4 ----------------------------------------------------------------


def test_p4_exhaustive_against_oracle():
    for text in all_valid_texts("ab", 6):
        s = sk(text, numbered=False, labeled=False, links=True)
        want = brute_force_texts(s, 4, AB)
        got = sorted(enum_p4(s, AB))
        assert got == sorted(set(got)), "enumeration produced a duplicate"
        assert got == want
        assert count_p4(s, AB) == len(want)
        assert text in want


def test_p4_exhaustive_wider_alphabet():
    for text in all_valid_texts("ab", 5):
        s = sk(text, numbered=False, labeled=False, links=True)
        want = brute_force_texts(s, 4, ABC)
        assert sorted(enum_p4(s, ABC)) == want
        assert count_p4(s, ABC) == len(want)


def test_p4_star_symmetry():
    # star heap: every permutation of distinct letters, once each
    s = sk("abc", numbered=False, labeled=False, links=True)
    assert count_p4(s, ABC) == 6
    texts = sorted(enum_p4(s, ABC))
    assert texts == sorted(brute_force_texts(s, 4, ABC))
    assert len(texts) == 6
    two = sk("ab", numbered=False, labeled=False, links=True)
    assert count_p4(two, AB) == 2
    assert count_p4(two, ABC) == 6


def test_p4_numbering_is_the_iso():
    s = sk("abaababc", numbered=False, labeled=False, links=True)
    found = infer_p4(s, ABC)
    assert found is not None
    h2 = build_position_heap(found.text)
    for v in s.nodes():
        got = found.labels.get(v)
        i = found.numbering[v]
        if v != s.root:
            assert got == h2.label[i]
    assert text_matches(found.text, s, 4)


def test_p4_link_mutation_differential():
    rng = random.Random(4)
    rejected = 0
    for _ in range(120):
        text = rnd_text(rng, "ab", rng.randint(2, 7))
        s = sk(text, numbered=False, labeled=False, links=True)
        links = dict(s.links)
        victim = rng.choice(list(links))
        candidates = [v for v in s.nodes() if v != victim and v != links[victim]]
        links[victim] = rng.choice(candidates)
        mutated = s.with_links(links)
        want = brute_force_texts(mutated, 4, AB)
        found = infer_p4(mutated, AB)
        if found is None:
            assert want == []
            rejected += 1
        else:
            assert found.text in want
            assert count_p4(mutated, AB) == len(want)
    assert rejected > 40


def test_p4_requires_links_and_alphabet_size():
    bare = sk("abc", numbered=False, labeled=False, links=False)
    with pytest.raises(ValueError):
        infer_p4(bare, ABC)
    s = sk("abc", numbered=False, labeled=False, links=True)
    with pytest.raises(AlphabetTooSmall):
        infer_p4(s, AB)


def test_p4_empty():
    s = HeapSketch("r", [], links={})
    assert infer_p4(s, AB).text == ""
    assert count_p4(s, AB) == 1
    assert list(enum_p4(s, AB)) == [""]


def test_p4_enum_deterministic():
    s = sk("abaac", numbered=False, labeled=False, links=True)
    assert list(enum_p4(s, ABC)) == list(enum_p4(s, ABC))


@pytest.mark.parametrize("n", [1200, 3000])
def test_p4_oracle_long_texts(n):
    # the link-preserving isomorphism search must not recurse per node, and a
    # wrong link must end the search early rather than after every mapping
    text = rnd_text(random.Random(n), "abc", n)
    s = sk(text, numbered=False, labeled=False, links=True)
    assert text_matches(text, s, 4)
    rng = random.Random(n)
    links = dict(s.links)
    for victim in rng.sample(sorted(links), 3):
        moved = dict(links)
        moved[victim] = rng.choice([v for v in s.nodes() if v not in (victim, links[victim])])
        assert not text_matches(text, s.with_links(moved), 4)


# the exact enum_p4 emission order for the links of "aaabac": three
# orbit-minimal assignments (the root's two equal-shaped subtrees swap),
# four cycles each, assignment-major
P4_PINNED = [
    "aaacab", "aacaab", "aaabac", "aabaac",
    "bbbcba", "bbcbba", "bbbabc", "bbabbc",
    "cccbca", "ccbcca", "cccacb", "ccaccb",
]


def test_p4_enum_order_pinned():
    s = sk("aaabac", numbered=False, labeled=False, links=True)
    assert list(enum_p4(s, ABC)) == P4_PINNED
    assert count_p4(s, ABC) == len(P4_PINNED)
    assert count_p4(s, Alphabet("abcd")) == 48


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_p4_builds_each_stage_once(monkeypatch):
    # one labeling, one trace graph and one heap rebuild per call; every other
    # root assignment only renames letters
    import posheap.infer

    s = sk("aaabac", numbered=False, labeled=False, links=True)
    names = ("build_position_heap", "build_trace_graph", "propagate_labels")
    calls = _count_calls(monkeypatch, posheap.infer, names)
    assert infer_p4(s, ABC) is not None
    assert calls["build_position_heap"] == 1
    calls.update(dict.fromkeys(names, 0))
    assert count_p4(s, ABC) == 12
    assert calls["propagate_labels"] == 1
    calls.update(dict.fromkeys(names, 0))
    assert len(list(enum_p4(s, ABC))) == 12
    assert calls["build_trace_graph"] == 1
    assert calls["propagate_labels"] == 1


def test_p4_oracle_needs_links():
    bare = sk("abaababc", numbered=False, labeled=True, links=False)
    with pytest.raises(ValueError, match="link map"):
        text_matches("abaababc", bare, 4)


def test_p4_equal_shapes_without_symmetry():
    # the root's leaves b and c have equal shapes, but only b is the link
    # target of a deeper node, so swapping them is no symmetry
    s = sk("abac", numbered=False, labeled=False, links=True)
    want = brute_force_texts(s, 4, ABC)
    assert sorted(enum_p4(s, ABC)) == want
    assert count_p4(s, ABC) == len(want) == 18
