"""Brute-force reference answers for small instances.

Scans every candidate text over the alphabet and keeps the ones whose
freshly built heap matches the input sketch under the matching rule of the
problem variant.  Deliberately knows nothing about suffix-link
reconstruction, multiplicities or Eulerian cycles, so it can sit on the
other side of a differential test from the real solvers.
"""

from itertools import product

from .errors import CapExceeded, UnlabeledInput
from .heap import Alphabet, build_position_heap, is_valid_text
from .sketch import HeapSketch, _subtree_codes, label_iso_map, numbered_shape_equal, shape_codes, tree_equal

_WORK_CAP = 10**7


def _link_iso_exists(x: HeapSketch, y: HeapSketch) -> bool:
    """Root-preserving tree isomorphism that also carries links onto links.

    Backtracking over shape-compatible sibling matchings in node order, on
    an explicit stack; each link is checked once both its ends are mapped.
    """
    if x.n != y.n:
        return False
    cx, cy = shape_codes(x), shape_codes(y)
    if cx[x.root] != cy[y.root]:
        return False
    order = [v for v in x.nodes() if v != x.root]
    level = {v: i for i, v in enumerate(order)}
    settled = [[] for _ in order]  # settled[i]: links with both ends mapped from level i on
    for v, t in x.links.items():
        settled[max(level.get(v, 0), level.get(t, 0))].append(v)
    mapping = {x.root: y.root}
    taken = {y.root}
    tried = [0] * len(order)  # tried[i]: candidates for order[i] used up so far
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        taken.discard(mapping.pop(v, None))  # undo this level's last choice
        kids = y.children[mapping[x.parent[v]]]
        for k in range(tried[i], len(kids)):
            w = kids[k]
            if w not in taken and cy[w] == cx[v]:
                mapping[v] = w
                if all(mapping[x.links[u]] == y.links.get(mapping[u]) for u in settled[i]):
                    taken.add(w)
                    tried[i] = k + 1
                    i += 1
                    break
                del mapping[v]
        else:
            tried[i] = 0  # given up: the level starts afresh when next reached
            i -= 1
    return i == len(order)


def _matches(built, s: HeapSketch, kind: int) -> bool:
    if kind == 1:
        return tree_equal(built.to_sketch(labeled=True, links=False), s, respect_numbers=True)
    if kind == 2:
        return numbered_shape_equal(built.to_sketch(labeled=False, links=False), s)
    if kind == 3:
        bs = built.to_sketch(numbered=False, labeled=True, links=False)
        return label_iso_map(bs, s) is not None
    if kind == 4:
        bs = built.to_sketch(numbered=False, labeled=False, links=True)
        return _link_iso_exists(bs, s)
    raise ValueError("unknown problem kind %r" % kind)


def text_matches(text: str, s: HeapSketch, kind: int) -> bool:
    """True iff the heap of text matches s under the given problem's rule."""
    if kind == 4 and s.links is None:
        raise ValueError("problem 4 needs a link map")
    return is_valid_text(text) and _matches(build_position_heap(text), s, kind)


def brute_force_texts(s: HeapSketch, kind: int, alphabet: Alphabet | None = None, max_len: int = 10):
    """All texts of length s.n whose heap matches s, in lexicographic order.

    kind selects the matching rule: 1 exact numbered+labeled, 2 numbered
    shape, 3 labeled tree up to node identity, 4 shape plus links up to
    node identity.  Raises CapExceeded rather than starting a scan that
    cannot finish.
    """
    if alphabet is None:
        if not s.is_labeled and s.n > 0:
            raise UnlabeledInput("cannot derive an alphabet without labels")
        alphabet = Alphabet("".join(sorted(set(s.label.values())))) if s.n else Alphabet("a")
    if s.n > max_len:
        raise CapExceeded("tree has %d positions, brute-force cap is %d" % (s.n, max_len))
    if len(alphabet) ** s.n > _WORK_CAP:
        raise CapExceeded("%d^%d candidate texts is over the scan budget" % (len(alphabet), s.n))
    if kind in (1, 2) and not s.is_numbered:
        raise ValueError("problem %d needs a numbering" % kind)
    if kind == 3 and s.n > 0 and not s.is_labeled:
        raise UnlabeledInput("problem 3 needs labels")
    if kind == 4 and s.links is None:
        raise ValueError("problem 4 needs a link map")

    found = []
    for letters in product(alphabet.letters, repeat=s.n):
        text = "".join(letters)
        if not is_valid_text(text):
            continue
        if _matches(build_position_heap(text), s, kind):
            found.append(text)
    return found


def canonical_code(s: HeapSketch) -> str:
    """Canonical string of a labeled tree: children sorted by letter."""
    return _subtree_codes(s, True)[0]


def random_valid_text(rng, alphabet: Alphabet, length: int) -> str:
    """Uniform-ish text with the end-letter rule honored by construction.

    The final letter is reserved up front and the prefix drawn from the
    rest, so it is not a uniform draw over all valid texts; good enough
    for fuzzing.
    """
    if length == 0:
        return ""
    if length > 1 and len(alphabet) < 2:
        raise ValueError("need at least two letters for texts this long")
    letters = alphabet.letters
    last = rng.choice(letters)
    rest = [c for c in letters if c != last]
    return "".join(rng.choice(rest) for _ in range(length - 1)) + last
