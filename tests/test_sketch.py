import random

import pytest

from posheap import (
    Alphabet,
    HeapSketch,
    UnlabeledInput,
    build_position_heap,
    count_p3,
    count_p4,
    enum_p4,
    infer_p1,
    infer_p2,
    infer_p3,
    infer_p4,
    label_iso_map,
    numbered_shape_equal,
    parse_pht,
    propagate_labels,
    tree_equal,
    write_pht,
)


def small():
    return HeapSketch("r", [("r", "x", "a"), ("r", "y", "b"), ("x", "z", "b")])


def test_basic_shape():
    s = small()
    assert s.n == 3
    assert s.nodes() == ["r", "x", "y", "z"]
    assert s.children["r"] == ["x", "y"]
    assert s.parent["z"] == "x"
    assert s.depth == {"r": 0, "x": 1, "y": 1, "z": 2}
    assert s.is_labeled and not s.is_numbered and not s.has_links


def test_parent_must_come_first():
    with pytest.raises(ValueError):
        HeapSketch("r", [("x", "y", "a"), ("r", "x", "b")])


def test_no_double_declaration():
    with pytest.raises(ValueError):
        HeapSketch("r", [("r", "x", "a"), ("r", "x", "b")])
    with pytest.raises(ValueError):
        HeapSketch("r", [("r", "r", "a")])


def test_labels_all_or_none():
    with pytest.raises(ValueError):
        HeapSketch("r", [("r", "x", "a"), ("r", "y", None)])
    bare = HeapSketch("r", [("r", "x", None)])
    assert not bare.is_labeled


def test_numbering_must_be_bijection_with_root_zero():
    edges = [("r", "x", "a")]
    HeapSketch("r", edges, numbering={"r": 0, "x": 1})
    with pytest.raises(ValueError):
        HeapSketch("r", edges, numbering={"r": 1, "x": 0})
    with pytest.raises(ValueError):
        HeapSketch("r", edges, numbering={"r": 0, "x": 2})
    with pytest.raises(ValueError):
        HeapSketch("r", edges, numbering={"r": 0})


def test_numbering_over_mixed_id_types():
    # node ids need not be comparable with each other
    s = HeapSketch("r", [("r", 1, "a")], numbering={"r": 0, 1: 1})
    assert infer_p1(s).text == "a"
    h = build_position_heap("abaababc").to_sketch(links=False)
    ids = {v: "root" if v == 0 else v for v in h.nodes()}
    mixed = HeapSketch(
        "root",
        [(ids[u], v, c) for u, v, c in h.edge_list],
        numbering={ids[v]: i for v, i in h.numbering.items()},
    )
    assert infer_p1(mixed).text == "abaababc"
    with pytest.raises(ValueError):
        HeapSketch("r", [("r", 1, "a")], numbering={"r": 0})
    with pytest.raises(ValueError):
        HeapSketch("r", [("r", 1, "a")], numbering={"r": 0, 1: 1, "x": 2})
    with pytest.raises(ValueError):
        HeapSketch("r", [("r", 1, "a")], numbering={"r": 0, "x": 1})


def test_link_endpoints_must_exist():
    with pytest.raises(ValueError):
        HeapSketch("r", [("r", "x", "a")], links={"x": "ghost"})


def test_tree_equal_numbered():
    h = build_position_heap("abab" + "c")
    a = h.to_sketch(numbered=True, labeled=True, links=False)
    b = h.to_sketch(numbered=True, labeled=True, links=False)
    assert tree_equal(a, b, respect_numbers=True)
    # renumber two root children with different subtrees
    swapped = dict(a.numbering)
    x, y = a.children[a.root][0], a.children[a.root][1]
    swapped[x], swapped[y] = swapped[y], swapped[x]
    c = HeapSketch(a.root, a.edge_list, numbering=swapped)
    assert not tree_equal(a, c, respect_numbers=True)
    assert tree_equal(a, c, respect_numbers=False)  # same labeled tree after all
    assert numbered_shape_equal(a, a)
    assert not numbered_shape_equal(a, c)
    # relabeling an edge is caught even with numbers matching
    relabeled = a.with_labels({v: ("z" if v == x else a.label[v]) for v in a.label})
    assert not tree_equal(a, relabeled, respect_numbers=True)


def test_tree_equal_requires_labels_when_ignoring_numbers():
    s = small()
    assert tree_equal(s, s, respect_numbers=False)
    with pytest.raises(UnlabeledInput):
        tree_equal(s.without_labels(), s.without_labels(), respect_numbers=False)


def test_label_iso_map_across_different_ids():
    s = small()
    t = HeapSketch(0, [(0, 1, "b"), (0, 2, "a"), (2, 3, "b")])
    iso = label_iso_map(s, t)
    assert iso == {"r": 0, "x": 2, "y": 1, "z": 3}
    # a changed deep label breaks it
    t2 = HeapSketch(0, [(0, 1, "b"), (0, 2, "a"), (2, 3, "a")])
    assert label_iso_map(s, t2) is None


def test_duplicate_siblings_never_equal():
    dup = HeapSketch("r", [("r", "x", "a"), ("r", "y", "a")])
    assert not tree_equal(dup, dup, respect_numbers=False)


def test_strip_and_extend():
    h = build_position_heap("aab" + "c")
    s = h.to_sketch(numbered=True, labeled=True, links=True)
    assert not s.without_numbers().is_numbered
    assert not s.without_labels().is_labeled
    assert not s.without_links().has_links
    relabeled = s.without_labels().with_labels({v: s.label[v] for v in s.label})
    assert tree_equal(relabeled, s, respect_numbers=True)
    relinked = s.without_links().with_links(dict(s.links))
    assert relinked.links == s.links


def test_node_by_number_round_trip():
    h = build_position_heap("abaab" + "c")
    s = h.to_sketch()
    byn = s.node_by_number()
    assert all(s.numbering[node] == num for num, node in byn.items())


def _views(s, name=lambda v: v):
    """Every view of s, with node ids passed through name."""

    def keyed(d):
        return None if d is None else {name(k): v for k, v in d.items()}

    nodes, index, parent, letters = s.layout()
    return (
        name(s.root), s.n, s.is_numbered, s.is_labeled, s.has_links,
        [name(v) for v in s.nodes()], [name(v) for v in nodes], keyed(index), parent, letters,
        [(name(u), name(v), c) for u, v, c in s.edge_list],
        {name(k): name(v) for k, v in s.parent.items()},
        keyed(s.label),
        {name(k): [name(v) for v in kids] for k, kids in s.children.items()},
        keyed(s.depth),
        keyed(s.numbering),
        None if s.links is None else {name(k): name(v) for k, v in s.links.items()},
    )


def _by_name(s, edges=None, numbered=True, linked=True):
    return HeapSketch(
        s.root,
        s.edge_list if edges is None else edges,
        numbering=s.numbering if numbered else None,
        links=s.links if linked else None,
    )


def test_every_construction_path_gives_the_same_views():
    rng = random.Random(7)
    for length in list(range(31)) * 2:
        letters = rng.choice(["ab", "abc", "abcd"])
        text = "".join(rng.choice(letters[:-1]) for _ in range(length - 1)) + letters[-1] if length else ""
        h = build_position_heap(text)
        for combo in range(8):
            numbered, labeled, linked = bool(combo & 4), bool(combo & 2), bool(combo & 1)
            s = h.to_sketch(numbered=numbered, labeled=labeled, links=linked)
            expected = _views(s)
            assert _views(_by_name(s, numbered=numbered, linked=linked)) == expected
            assert _views(parse_pht(write_pht(s))) == _views(s, str)

        full = h.to_sketch()
        bare = [(u, v, None) for u, v, _ in full.edge_list]
        assert _views(full.without_numbers()) == _views(_by_name(full, numbered=False))
        assert _views(full.without_labels()) == _views(_by_name(full, bare))
        assert _views(full.without_links()) == _views(_by_name(full, linked=False))
        assert _views(full.without_labels().with_labels(full.label)) == _views(full)
        assert _views(full.without_links().with_links(full.links)) == _views(full)
        # a heap's labels are what its links propagate from its root edges, so
        # any other assignment renames every letter through its root edge's
        roots = full.children[full.root]
        rename = dict(zip([full.label[v] for v in roots], rng.sample("vwxyz", len(roots))))
        assignment = {v: rename[full.label[v]] for v in roots}
        relabeled = [(u, v, rename[c]) for u, v, c in full.edge_list]
        assert _views(propagate_labels(full.without_labels(), assignment)) == _views(_by_name(full, relabeled))


def test_solvers_and_export_construct_no_sketch_by_name(monkeypatch):
    h = build_position_heap("abaababc")
    calls = []
    by_name = HeapSketch.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        by_name(self, *args, **kwargs)

    monkeypatch.setattr(HeapSketch, "__init__", counted)
    full = h.to_sketch()
    labeled = h.to_sketch(numbered=False, links=False)
    shape = h.to_sketch(numbered=False, labeled=False)
    abc = Alphabet("abc")
    assert infer_p1(full).text == "abaababc"
    assert infer_p2(full.without_labels(), abc) is not None
    assert infer_p3(labeled) is not None
    assert infer_p4(shape, abc) is not None
    assert count_p3(labeled) > 0 and count_p4(shape, abc) > 0
    assert next(enum_p4(shape, abc))
    assert calls == []
