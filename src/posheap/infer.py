"""Recovering source texts from partially erased position heaps.

Four variants, numbered the way the CLI exposes them, by what the input
sketch still carries:

  1  numbers and labels   the text is forced letter by letter
  2  numbers only         labels follow from any injective root assignment
  3  labels only          links, multiplicities and an Eulerian cycle
  4  links only           root assignment propagates labels, then as in 3

Every solve path checks its answer once, in _matching_heap: the heap of
the candidate text must be the input tree under a numbering (the sketch's
own in 1 and 2, the one the cycle readout returns in 3 and 4), compared on
parents and edge letters in 1 and 3, on parents only in 2, and on parents,
the propagated letters and the links in 4, whatever else the sketch
carries.  The readout's numbering is the unique label isomorphism whenever
one exists, so 3 and 4 accept exactly the texts whose heap is isomorphic
to the input.  Counts are only reported once the canonical solution has
verified.  Each problem also has counting and streaming enumeration
variants (except 1, whose answer is unique when it exists).
"""

from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product

from .ecp import count_ecp, enumerate_ecp, solve_ecp
from .errors import (
    AlphabetTooSmall,
    LinkInconsistent,
    NegativeSigma,
    NoSuchChild,
)
from .heap import Alphabet, build_position_heap, is_valid_text
# label_iso_map and numbered_shape_equal stay here: perfbench/tracing.py wraps them by name
from .sketch import HeapSketch, label_iso_map, numbered_shape_equal, shape_codes, tree_equal
from .trace import (
    build_trace_graph,
    compute_sigma,
    propagate_labels,
    read_text_from_cycle,
    reconstruct_suffix_links,
)


class ProblemKind(Enum):
    """Which annotation layers the input still has."""

    NUMBERED_LABELED = 1
    NUMBERED = 2
    LABELED = 3
    LINKS_ONLY = 4

    @classmethod
    def for_sketch(cls, s: HeapSketch):
        if s.is_numbered and s.is_labeled:
            return cls.NUMBERED_LABELED
        if s.is_numbered:
            return cls.NUMBERED
        if s.is_labeled:
            return cls.LABELED
        return cls.LINKS_ONLY


@dataclass(frozen=True)
class Inferred:
    """A recovered text plus the annotations the input was missing."""

    text: str
    numbering: dict
    labels: dict


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


# --- the answer check -------------------------------------------------------


def _matching_heap(s: HeapSketch, text: str, numbering: dict, labels=None, links=None):
    """The heap of text if it is s under numbering, else None.

    numbering maps every node of s to its heap node, a bijection onto
    0..s.n for a text of length s.n.  Each node's parent must map to the
    heap parent of its image.  Where the caller passes them, the edge
    letter must also equal labels[v] and the image's suffix link must be
    the image of links[v].  Compared as lists over s.layout() order.
    """
    if not is_valid_text(text):
        return None
    built = build_position_heap(text)
    nodes, _, parent, _ = s.layout()
    number = [numbering[v] for v in nodes]
    mine, kids = number[1:], nodes[1:]
    if [built.parent[h] for h in mine] != [number[p] for p in parent[1:]]:
        return None
    if labels is not None and [built.label[h] for h in mine] != [labels[v] for v in kids]:
        return None
    if links is not None and [built.slink[h] for h in mine] != [numbering[links[v]] for v in kids]:
        return None
    return built


# --- problems 1 and 2: numbers present ---------------------------------------


def _spell(s: HeapSketch, root_letter: dict) -> str:
    """The text a numbered tree spells, one letter per root subtree.

    Each node's position gets root_letter[c] for the root child c above it.
    """
    nodes, _, parent, _ = s.layout()
    top = list(range(len(nodes)))  # top[i]: the root child above node i
    out = [""] * len(nodes)
    for i in range(1, len(nodes)):
        if parent[i]:
            top[i] = top[parent[i]]
        out[s.numbering[nodes[i]]] = root_letter[nodes[top[i]]]
    return "".join(out)


def infer_p1(s: HeapSketch) -> Inferred | None:
    """The unique candidate text, or None if the sketch lies about itself."""
    if not (s.is_numbered and s.is_labeled):
        raise ValueError("problem 1 needs numbering and labels")
    text = _spell(s, s.label)
    if _matching_heap(s, text, s.numbering, s.label) is None:
        return None
    return Inferred(text, dict(s.numbering), dict(s.label))


def _p2_check(s: HeapSketch, alphabet: Alphabet):
    if not s.is_numbered:
        raise ValueError("problem 2 needs a numbering")
    k = len(s.children[s.root])
    if k > len(alphabet):
        raise AlphabetTooSmall("root has %d children, alphabet only %d letters" % (k, len(alphabet)))
    return k


def infer_p2(s: HeapSketch, alphabet: Alphabet) -> Inferred | None:
    """Canonical root assignment (alphabet order along child order)."""
    _p2_check(s, alphabet)
    text = _spell(s, dict(zip(s.children[s.root], alphabet.letters)))
    built = _matching_heap(s, text, s.numbering)
    if built is None:
        return None
    byn = s.node_by_number()
    labels = {byn[i]: built.label[i] for i in range(1, s.n + 1)}
    return Inferred(text, dict(s.numbering), labels)


def count_p2(s: HeapSketch, alphabet: Alphabet) -> int:
    """Falling factorial |a|!/(|a|-k)!; any one valid labeling implies all.

    Relabeling letters bijectively commutes with heap construction, so
    validity cannot depend on which distinct letters the roots get.
    """
    k = _p2_check(s, alphabet)
    if infer_p2(s, alphabet) is None:
        return 0
    return _falling(len(alphabet), k)


def enum_p2(s: HeapSketch, alphabet: Alphabet):
    """All texts, one per injective root assignment, lexicographic."""
    k = _p2_check(s, alphabet)
    found = infer_p2(s, alphabet)
    if found is None:
        return
    canonical = alphabet.letters[:k]
    for chosen in permutations(alphabet.letters, k):
        yield found.text.translate(str.maketrans(canonical, "".join(chosen)))


# --- problem 3: labels only --------------------------------------------------


def _p3_trace(s: HeapSketch):
    """Labeled sketch -> trace graph, or None when any stage rejects it."""
    if s.n > 0 and not s.is_labeled:
        raise ValueError("problem 3 needs labels")
    try:
        links = reconstruct_suffix_links(s)
        sigma = compute_sigma(s, links)
    except (NoSuchChild, NegativeSigma):
        return None
    except ValueError:
        # duplicate sibling labels; nothing else can raise here on a
        # labeled sketch since reconstructed links are always total
        return None
    return build_trace_graph(s, links, sigma)


def _solve_p3(s: HeapSketch, verify: bool = True):
    """(trace graph, Inferred | None) for a labeled sketch."""
    tg = _p3_trace(s)
    if tg is None:
        return None, None
    cycle = solve_ecp(tg.graph, tg.priority, tg.root)
    if cycle is None:
        return tg, None
    text, numbering = read_text_from_cycle(tg, cycle)
    if verify and _matching_heap(s, text, numbering, s.label) is None:
        return tg, None
    return tg, Inferred(text, numbering, dict(s.label))


def infer_p3(s: HeapSketch, verify: bool = True) -> Inferred | None:
    """One source text for a labeled tree, or None.

    verify controls the closing cross-check that rebuilds the answer's heap
    and matches it against s.  The reconstruction itself already proves the
    answer on any tree the earlier stages accepted, so callers that re-check
    results on their own may pass verify=False to save one build pass.
    """
    return _solve_p3(s, verify=verify)[1]


def count_p3(s: HeapSketch) -> int:
    tg, found = _solve_p3(s)
    if found is None:
        return 0
    return count_ecp(tg.graph, tg.priority, tg.root)


def enum_p3(s: HeapSketch):
    """Every text whose heap matches s up to node identity, streamed."""
    tg, found = _solve_p3(s)
    if found is None:
        return
    first = True
    for cycle in enumerate_ecp(tg.graph, tg.priority, tg.root):
        text, numbering = read_text_from_cycle(tg, cycle)
        if first:
            if _matching_heap(s, text, numbering, s.label) is None:
                raise RuntimeError("enumerated text failed verification: %r" % text)
            first = False
        yield text


# --- problem 4: links only ---------------------------------------------------


def _solve_p4(s: HeapSketch, alphabet: Alphabet):
    """(labeled sketch, trace graph, Inferred) for a links-only sketch, or None.

    The labels come from the canonical root assignment, the alphabet's
    letters in root-child order; None when the links reject it or no text
    matches s.  The answer is checked once, on s's links as well.
    """
    if s.links is None:
        raise ValueError("problem 4 needs a link map")
    roots = s.children[s.root]
    if len(roots) > len(alphabet):
        raise AlphabetTooSmall(
            "root has %d children, alphabet only %d letters" % (len(roots), len(alphabet))
        )
    try:
        labeled = propagate_labels(s, {c: alphabet.letters[i] for i, c in enumerate(roots)})
    except LinkInconsistent:
        return None
    tg, found = _solve_p3(labeled, verify=False)
    if found is None:
        return None
    if _matching_heap(labeled, found.text, found.numbering, labeled.label, s.links) is None:
        return None
    return labeled, tg, found


def infer_p4(s: HeapSketch, alphabet: Alphabet) -> Inferred | None:
    solved = _solve_p4(s, alphabet)
    if solved is None:
        return None
    labeled, _tg, found = solved
    return Inferred(found.text, found.numbering, dict(labeled.label))


def _root_symmetries(s: HeapSketch, labeled0: HeapSketch, alphabet: Alphabet):
    """Root-child permutations that extend to shape+link automorphisms.

    Tested by relabeling: rho qualifies iff permuting the canonical root
    letters by rho gives a labeled tree isomorphic to the canonical one.
    Labels propagate by copying down from link targets, so that tree is
    labeled0 with its letters renamed, and no candidate propagates again.
    Candidates only need trying within groups of equal subtree shape.
    """
    roots = s.children[s.root]
    assignment0 = {c: alphabet.letters[i] for i, c in enumerate(roots)}
    codes = shape_codes(s)
    groups = {}
    for c in roots:
        groups.setdefault(codes[c], []).append(c)
    group_lists = list(groups.values())
    symmetries = []
    for combo in product(*(permutations(g) for g in group_lists)):
        rho = {}
        for original, permuted in zip(group_lists, combo):
            rho.update(zip(original, permuted))
        rename = {assignment0[c]: assignment0[rho[c]] for c in roots}
        relabeled = labeled0.with_labels({v: rename[c] for v, c in labeled0.label.items()})
        if tree_equal(relabeled, labeled0, respect_numbers=False):
            symmetries.append(rho)
    return symmetries


def count_p4(s: HeapSketch, alphabet: Alphabet) -> int:
    """Distinct texts: cycle count times assignments, symmetry collapsed.

    Assignments related by a shape+link automorphism induce isomorphic
    labeled trees and therefore spell the same texts, so the assignment
    factor divides by the number of such automorphisms at the root.
    """
    solved = _solve_p4(s, alphabet)
    if solved is None:
        return 0
    labeled, tg, _found = solved
    base = count_ecp(tg.graph, tg.priority, tg.root)
    k = len(s.children[s.root])
    sym = len(_root_symmetries(s, labeled, alphabet))
    total = base * _falling(len(alphabet), k)
    assert total % sym == 0
    return total // sym


def enum_p4(s: HeapSketch, alphabet: Alphabet):
    """Distinct texts, streamed: orbit-minimal assignments times cycles.

    One trace graph serves every assignment.  Its edges, multiplicities
    and priorities follow from the shape and the links alone (the links
    reconstructed from labeled0 equal s.links once _solve_p4's check has
    passed), and the labeling for an assignment is the canonical one with
    its letters renamed.  So each assignment spells the canonical texts,
    renamed.
    """
    solved = _solve_p4(s, alphabet)
    if solved is None:
        return
    labeled0, tg, _found = solved
    symmetries = _root_symmetries(s, labeled0, alphabet)
    roots = s.children[s.root]
    canonical = alphabet.letters[: len(roots)]
    first = True
    for chosen in permutations(alphabet.letters, len(roots)):
        base = tuple(alphabet.index(c) for c in chosen)
        pi = dict(zip(roots, chosen))
        if any(tuple(alphabet.index(pi[rho[c]]) for c in roots) < base for rho in symmetries):
            continue
        rename = str.maketrans(canonical, "".join(chosen))
        for cycle in enumerate_ecp(tg.graph, tg.priority, tg.root):
            text, numbering = read_text_from_cycle(tg, cycle)
            text = text.translate(rename)
            if first:  # canonical assignment, checked against labeled0 as is
                if _matching_heap(labeled0, text, numbering, labeled0.label, s.links) is None:
                    raise RuntimeError("enumerated text failed verification: %r" % text)
                first = False
            yield text
