"""Position heap construction.

The position heap of a text T of length n (whose last letter occurs nowhere
else in T) is a rooted tree with nodes numbered 0..n.  Node 0 is the root and
carries the empty string; node i carries the shortest prefix of the suffix
T[i:] that no earlier node carries.  Carried strings are closed under prefix,
so they form a trie: the edge into node i is labeled with the last letter of
its string, and sibling labels are distinct.  Every suffix of T is then the
string of some node extended by at most one walk step, which is what makes
the structure useful; here we only need the tree itself plus its suffix
links.

The suffix link of node i points to the node carrying node i's string minus
its first letter.  Links always exist, always go from depth d to depth d-1,
and may point to higher-numbered nodes.

Construction is online, left to right, one node per position.  The walk for
position i+1 starts at the link target of node i (or at the exact spot where
that target is about to appear), which bounds the total walk length by 2n.
"""

from .errors import InvalidText, UnknownLetter

# Positions are 1-based in the text; node i corresponds to position i.


# The letter rule: true for one printable single-byte symbol other than whitespace,
# '-' and '#' (the PHT text format reserves those), false for anything else.
_is_letter = frozenset(
    c for c in map(chr, range(256)) if c.isprintable() and not c.isspace() and c not in "-#"
).__contains__


class Alphabet:
    """Ordered set of distinct letters.

    The order is significant: it is the tie-breaking and enumeration order
    everywhere downstream.  Letters must be printable single-byte symbols and
    must not be whitespace, '-' or '#' (the PHT text format reserves those).
    """

    def __init__(self, letters: str):
        if not letters:
            raise UnknownLetter("alphabet must not be empty")
        seen = set()
        for c in letters:
            if not _is_letter(c):
                raise UnknownLetter("letter not allowed in an alphabet: %r" % c)
            if c in seen:
                raise UnknownLetter("duplicate letter in alphabet: %r" % c)
            seen.add(c)
        self.letters = letters
        self._index = {c: k for k, c in enumerate(letters)}

    def __contains__(self, c) -> bool:
        return c in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def index(self, c) -> int:
        try:
            return self._index[c]
        except KeyError:
            raise UnknownLetter("letter %r is not in alphabet %r" % (c, self.letters)) from None

    def __eq__(self, other):
        return isinstance(other, Alphabet) and other.letters == self.letters

    def __repr__(self):
        return "Alphabet(%r)" % self.letters


def is_valid_text(text: str) -> bool:
    """True iff the text is empty or its last letter occurs only there."""
    if not text:
        return True
    return text[-1] not in text[:-1]


class PositionHeap:
    """Position heap of a text, nodes 0..n, plus its suffix links.

    parent[i], label[i] and depth[i] describe the edge into node i (the root
    has parent -1 and label '').  children[i] maps letter -> child node.
    slink[i] is the suffix link target of node i (slink[0] stays 0 and is not
    a real link).
    """

    __slots__ = ("text", "n", "parent", "label", "depth", "children", "slink")

    def __init__(self, text: str, n: int, parent, label, depth, children, slink):
        self.text = text
        self.n = n
        self.parent = parent
        self.label = label
        self.depth = depth
        self.children = children
        self.slink = slink

    def path_label(self, v: int) -> str:
        """String carried by node v (labels along the root-to-v path)."""
        out = []
        while v > 0:
            out.append(self.label[v])
            v = self.parent[v]
        out.reverse()
        return "".join(out)

    def edges(self):
        """Edges as (parent, child, letter) in child-number order."""
        return [(self.parent[i], i, self.label[i]) for i in range(1, self.n + 1)]

    def to_sketch(self, numbered: bool = True, labeled: bool = True, links: bool = True):
        """Export as a HeapSketch with integer node ids equal to the numbers."""
        from .sketch import HeapSketch

        order = [0]  # node ids in BFS order, so parents precede children
        parent = [-1]
        letters = [None]
        for k, u in enumerate(order):  # the order grows while it is read
            kids = self.children[u]
            for c in sorted(kids):
                order.append(kids[c])
                parent.append(k)
                letters.append(c)
        index = dict(zip(order, range(len(order))))
        layout = (order, index, parent, letters if labeled else [None] * len(order))
        link = [-1] + [index[self.slink[v]] for v in order[1:]] if links else None
        # node ids are the numbers, so the numbering list is the order itself
        return HeapSketch._of(0, layout, order if numbered else None, link, None)


def build_position_heap(text: str, alphabet: Alphabet | None = None) -> PositionHeap:
    """Build the position heap (with suffix links) of a valid text.

    Raises InvalidText if the last letter repeats earlier, UnknownLetter if a
    letter falls outside the given alphabet.  Runs in O(n) for a fixed
    alphabet.
    """
    if not is_valid_text(text):
        raise InvalidText("last letter %r occurs earlier in the text" % text[-1])
    if alphabet is None:
        alphabet = Alphabet("".join(sorted(set(text)))) if text else None
    else:
        for c in set(text):
            if c not in alphabet:
                raise UnknownLetter("letter %r is not in alphabet %r" % (c, alphabet.letters))

    n = len(text)
    parent = [-1]
    label = [""]
    depth = [0]
    children = [{}]
    slink = [0]

    cur = 0           # link target of the previous node; the next walk starts here
    pending = None    # (grandlink, letter) when that target does not exist yet

    for i in range(1, n + 1):
        if pending is None:
            u = cur
            d = depth[u]
            while True:
                nxt = children[u].get(text[i + d - 1])
                if nxt is None:
                    break
                u = nxt
                d += 1
            c = text[i + d - 1]
        else:
            # Node i is exactly the missing link target of node i-1: it hangs
            # under the link of node i-1's parent, with node i-1's edge letter.
            u, c = pending
            slink[i - 1] = i
            pending = None

        parent.append(u)
        label.append(c)
        depth.append(depth[u] + 1)
        children.append({})
        children[u][c] = i
        slink.append(0)

        if u == 0:
            cur = 0  # slink[i] stays 0
        else:
            su = slink[u]
            t = children[su].get(c)
            if t is not None:
                slink[i] = t
                cur = t
            else:
                pending = (su, c)

    # The unique last letter lands directly under the root, so its link
    # resolves immediately and nothing can stay pending.
    assert pending is None
    return PositionHeap(text, n, parent, label, depth, children, slink)
