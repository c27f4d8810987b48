"""Partially erased position heaps.

A HeapSketch is a rooted tree with opaque node ids and any subset of the
three annotation layers a full position heap carries:

  * per-edge letter labels (all edges or none),
  * a numbering (bijection onto 0..n with the root at 0),
  * a link map (node -> node, usually total on non-root nodes).

A sketch stores one form, flat lists over node numbers (see layout); the
node-keyed dicts are views spelled out on first use.  The inference
routines take sketches as input and decide which texts, if any, could have
produced them.
"""

from functools import cached_property

from .errors import UnlabeledInput


class HeapSketch:
    """Immutable-by-convention rooted tree with optional annotations.

    edges must be given parent-first: every parent id is either the root or
    appeared earlier as a child.  Edge order is preserved; it is the child
    order used by every deterministic traversal downstream.

    Stored once, as layout() plus _number[i], the number of node i, and
    _link[i], the node its link points at (-1 for none), or None without
    that layer.  edge_list, parent, label, children, depth, numbering and
    links are views spelled out on first use; derived sketches share lists.
    """

    def __init__(self, root, edges, numbering=None, links=None, alphabet=None):
        nodes, index, parent, letters = [root], {root: 0}, [-1], [None]
        for u, v, c in edges:
            p = index.get(u)
            if p is None:
                raise ValueError("edge parent %r not declared before use" % (u,))
            if v in index:
                raise ValueError("node %r declared twice" % (v,))
            index[v] = len(nodes)
            nodes.append(v)
            parent.append(p)
            letters.append(c)
        number = None if numbering is None else [numbering.get(v) for v in nodes]
        if number is not None:
            _check_numbers(number, len(numbering))
        link = None if links is None else _link_list(index, links)
        self._fill(root, (nodes, index, parent, _checked_letters(letters)), number, link, alphabet)

    @classmethod
    def _of(cls, root, layout, number, link, alphabet):
        """A sketch over lists already checked; they are kept, not copied."""
        return cls.__new__(cls)._fill(root, layout, number, link, alphabet)

    def _fill(self, root, layout, number, link, alphabet):
        self.root, self.n, self.alphabet = root, len(layout[0]) - 1, alphabet
        self._layout, self._number, self._link = layout, number, link
        return self

    # --- annotation presence -------------------------------------------------

    @property
    def is_labeled(self) -> bool:
        return self.n == 0 or self._layout[3][1] is not None

    @property
    def is_numbered(self) -> bool:
        return self._number is not None

    @property
    def has_links(self) -> bool:
        return self._link is not None

    def nodes(self):
        """All node ids, root first, then children in edge order."""
        return list(self._layout[0])

    def layout(self):
        """The stored tree as (nodes, index, parent, letters).

        Node i is nodes()[i] and index maps each node id back to i, so node
        i >= 1 is the child of edge i - 1.  parent[i] is the index of node
        i's parent (-1 for the root) and letters[i] the label of the edge
        into node i (None for the root and on unlabeled sketches).  Every
        call returns the same objects, which callers must not change.
        """
        return self._layout

    # --- views, spelled out on first use -------------------------------------

    @cached_property
    def edge_list(self):
        nodes, _, parent, letters = self._layout
        return list(zip(map(nodes.__getitem__, parent[1:]), nodes[1:], letters[1:]))

    @cached_property
    def parent(self) -> dict:
        nodes, _, parent, _ = self._layout
        return dict(zip(nodes[1:], map(nodes.__getitem__, parent[1:])))

    @cached_property
    def label(self) -> dict:
        nodes, _, _, letters = self._layout
        return dict(zip(nodes[1:], letters[1:])) if self.is_labeled else {}

    @cached_property
    def children(self) -> dict:
        nodes, _, parent, _ = self._layout
        kids = [[] for _ in nodes]
        for i in range(1, len(nodes)):
            kids[parent[i]].append(nodes[i])
        return dict(zip(nodes, kids))

    @cached_property
    def depth(self) -> dict:
        nodes, _, parent, _ = self._layout
        depth = [0] * len(nodes)
        for i in range(1, len(nodes)):
            depth[i] = depth[parent[i]] + 1
        return dict(zip(nodes, depth))

    @cached_property
    def numbering(self):
        return None if self._number is None else dict(zip(self._layout[0], self._number))

    @cached_property
    def links(self):
        nodes, link = self._layout[0], self._link
        return None if link is None else {nodes[i]: nodes[t] for i, t in enumerate(link) if t >= 0}

    def node_by_number(self):
        return dict(zip(self._number, self._layout[0]))

    # --- strip/extend helpers ------------------------------------------------

    def _derive(self, labeled, number, link, letters=None):
        """This tree with these numbers and links, and letters (its own unless given) if labeled."""
        nodes, index, parent, own = self._layout
        if letters is None:
            letters = own if labeled else [None] * len(nodes)
        alphabet = self.alphabet if labeled else None
        return HeapSketch._of(self.root, (nodes, index, parent, letters), number, link, alphabet)

    def without_numbers(self):
        return self._derive(self.is_labeled, None, self._link)

    def without_labels(self):
        return self._derive(False, self._number, self._link)

    def without_links(self):
        return self._derive(self.is_labeled, self._number, None)

    def with_labels(self, labels):
        """Copy with per-child labels replaced by the given dict."""
        return self._with_letters([None] + [labels[v] for v in self._layout[0][1:]])

    def _with_letters(self, letters):
        """Copy with letters[i] on the edge into node i (all letters or none)."""
        return self._derive(True, self._number, self._link, _checked_letters(letters))

    def with_links(self, links):
        return self._derive(self.is_labeled, self._number, _link_list(self._layout[1], links))


def _checked_letters(letters):
    """letters, after checking that all edges or none carry one."""
    if letters.count(None) not in (1, len(letters)):
        raise ValueError("either all edges or no edges may carry labels")
    return letters


def _check_numbers(number, given):
    """ValueError unless number, read from given entries, is a bijection onto 0..n, root at 0."""
    if number[0] != 0:
        raise ValueError("root must be numbered 0")
    span = range(len(number))
    seen = bytearray(len(number))
    for k in number:
        if k not in span or seen[k]:
            raise ValueError("numbering must be a bijection onto 0..n")
        seen[k] = 1
    if given != len(number):
        raise ValueError("numbering must be a bijection onto 0..n")


def _link_list(index, links):
    """The link map as node numbers: link[i] is the target of node i, or -1."""
    link = [-1] * len(index)
    for u, v in links.items():
        i, j = index.get(u), index.get(v)
        if i is None or j is None:
            raise ValueError("link endpoint is not a node: %r -> %r" % (u, v))
        link[i] = j
    return link


def _require_labeled(s: HeapSketch):
    if s.n > 0 and not s.is_labeled:
        raise UnlabeledInput("operation needs edge labels on every edge")


def _by_number(s: HeapSketch, with_letters: bool):
    """(parent's number, edge letter or None) of each node, listed by number."""
    if not s.is_numbered:
        raise ValueError("respect_numbers needs numberings on both sketches")
    _, _, parent, letters = s._layout
    number = s._number
    out = [None] * len(number)
    for i in range(1, len(number)):
        out[number[i]] = (number[parent[i]], letters[i] if with_letters else None)
    return out


def tree_equal(x: HeapSketch, y: HeapSketch, respect_numbers: bool) -> bool:
    """Equality of labeled trees.

    With respect_numbers, node identity is the numbering (both sketches must
    be numbered) and the comparison is exact.  Without it, the comparison is
    isomorphism of labeled rooted trees, which is unique and linear-time
    because sibling labels are distinct in anything a heap can produce;
    duplicate sibling labels compare unequal.
    """
    _require_labeled(x)
    _require_labeled(y)
    if x.n != y.n:
        return False
    if respect_numbers:
        return _by_number(x, True) == _by_number(y, True)
    return label_iso_map(x, y) is not None


def label_iso_map(x: HeapSketch, y: HeapSketch):
    """The unique label-respecting iso x -> y as a dict, or None.

    Returns None when shapes or labels disagree, or when duplicate sibling
    labels make the pairing ambiguous (no heap has those).  Each node of x
    maps to the child of its parent's image by the same letter.
    """
    _require_labeled(x)
    _require_labeled(y)
    if x.n != y.n:
        return None
    ynodes, _, yparent, yletters = y._layout
    child = dict(zip(zip(yparent, yletters), range(len(ynodes))))
    xnodes, _, xparent, xletters = x._layout
    image = [0] * len(xnodes)
    for i in range(1, len(xnodes)):
        image[i] = child.get((image[xparent[i]], xletters[i]))
        if image[i] is None:
            return None
    if len(child) != len(ynodes) or len(set(image)) != len(image):
        return None  # duplicate sibling labels in y or in x
    return dict(zip(xnodes, map(ynodes.__getitem__, image)))


def shape_codes(s: HeapSketch) -> dict:
    """Label-free canonical parenthesis code of the subtree under each node.

    Two subtrees have the same shape exactly when their codes are equal.
    """
    return dict(zip(s._layout[0], _subtree_codes(s, False)))


def _subtree_codes(s: HeapSketch, labeled: bool) -> list:
    """Each node's subtree as its children's codes, sorted, in parentheses.

    Listed in layout order; with labeled, each child's code starts with its edge letter.
    """
    _, _, parent, letters = s._layout
    parts = [[] for _ in parent]
    codes = [""] * len(parent)
    for i in range(len(parent) - 1, -1, -1):  # children come after parents
        codes[i] = "(" + "".join(sorted(parts[i])) + ")"
        if i:
            parts[parent[i]].append(letters[i] + codes[i] if labeled else codes[i])
    return codes


def numbered_shape_equal(x: HeapSketch, y: HeapSketch) -> bool:
    """Shape equality under numberings, ignoring labels entirely."""
    if not (x.is_numbered and y.is_numbered):
        raise ValueError("both sketches must be numbered")
    return x.n == y.n and _by_number(x, False) == _by_number(y, False)
