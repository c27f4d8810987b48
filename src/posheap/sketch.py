"""Partially erased position heaps.

A HeapSketch is a rooted tree with opaque node ids and any subset of the
three annotation layers a full position heap carries:

  * per-edge letter labels (all edges or none),
  * a numbering (bijection onto 0..n with the root at 0),
  * a link map (node -> node, usually total on non-root nodes).

The inference routines take sketches as input and decide which texts, if
any, could have produced them.
"""

from .errors import UnlabeledInput


class HeapSketch:
    """Immutable-by-convention rooted tree with optional annotations.

    edges must be given parent-first: every parent id is either the root or
    appeared earlier as a child.  Edge order is preserved; it is the child
    order used by every deterministic traversal downstream.
    """

    def __init__(self, root, edges, numbering=None, links=None, alphabet=None):
        self.root = root
        self.edge_list = list(edges)
        self.parent = {}
        self.label = {}
        self.children = {root: []}
        labeled_count = 0
        for parent, child, letter in self.edge_list:
            if parent not in self.children:
                raise ValueError("edge parent %r not declared before use" % (parent,))
            if child in self.children or child == root:
                raise ValueError("node %r declared twice" % (child,))
            self.parent[child] = parent
            self.children[child] = []
            self.children[parent].append(child)
            if letter is not None:
                self.label[child] = letter
                labeled_count += 1
        if labeled_count not in (0, len(self.edge_list)):
            raise ValueError("either all edges or no edges may carry labels")

        self.depth = {root: 0}
        for parent, child, _ in self.edge_list:
            self.depth[child] = self.depth[parent] + 1

        self.n = len(self.edge_list)
        self.numbering = dict(numbering) if numbering is not None else None
        if self.numbering is not None:
            if self.numbering.get(root) != 0:
                raise ValueError("root must be numbered 0")
            if sorted(self.numbering) != sorted(self.children) or sorted(
                self.numbering.values()
            ) != list(range(self.n + 1)):
                raise ValueError("numbering must be a bijection onto 0..n")
        self.links = dict(links) if links is not None else None
        if self.links is not None:
            for u, v in self.links.items():
                if u not in self.children or v not in self.children:
                    raise ValueError("link endpoint is not a node: %r -> %r" % (u, v))
        self.alphabet = alphabet
        self._layout = None

    # --- annotation presence -------------------------------------------------

    @property
    def is_labeled(self) -> bool:
        return len(self.label) == self.n

    @property
    def is_numbered(self) -> bool:
        return self.numbering is not None

    @property
    def has_links(self) -> bool:
        return self.links is not None

    def nodes(self):
        """All node ids, root first, then children in edge order."""
        return [self.root] + [child for _, child, _ in self.edge_list]

    # --- derived views -------------------------------------------------------

    def layout(self):
        """Integer form of the tree as (nodes, index, parent, letters), cached.

        Node i is nodes()[i] and index maps each node id back to i, so node
        i >= 1 is the child of edge i - 1.  parent[i] is the index of node
        i's parent (-1 for the root) and letters[i] the label of the edge
        into node i (None for the root and on unlabeled sketches).  Every
        call returns the same objects, which callers must not change.
        """
        if self._layout is None:
            nodes = self.nodes()
            index = {v: i for i, v in enumerate(nodes)}
            parent = [-1] + [index[u] for u, _, _ in self.edge_list]
            letters = [None] + [c for _, _, c in self.edge_list]
            self._layout = (nodes, index, parent, letters)
        return self._layout

    def has_duplicate_siblings(self) -> bool:
        for u, kids in self.children.items():
            letters = [self.label.get(v) for v in kids]
            if len(set(letters)) != len(letters):
                return True
        return False

    def node_by_number(self):
        return {num: node for node, num in self.numbering.items()}

    # --- strip/extend helpers ------------------------------------------------

    def _rebuild(self, labeled, numbered, linked, new_labels=None, new_links=None):
        labels = new_labels if new_labels is not None else self.label
        edges = [
            (p, c, labels[c] if labeled else None) for p, c, _ in self.edge_list
        ]
        links = None
        if linked:
            links = new_links if new_links is not None else self.links
        return HeapSketch(
            self.root,
            edges,
            numbering=self.numbering if numbered else None,
            links=links,
            alphabet=self.alphabet if labeled else None,
        )

    def without_numbers(self):
        return self._rebuild(self.is_labeled, False, self.has_links)

    def without_labels(self):
        return self._rebuild(False, self.is_numbered, self.has_links)

    def without_links(self):
        return self._rebuild(self.is_labeled, self.is_numbered, False)

    def with_labels(self, labels):
        """Copy with per-child labels replaced by the given dict."""
        return self._rebuild(True, self.is_numbered, self.has_links, new_labels=labels)

    def with_links(self, links):
        return self._rebuild(self.is_labeled, self.is_numbered, True, new_links=links)


def _require_labeled(s: HeapSketch):
    if s.n > 0 and not s.is_labeled:
        raise UnlabeledInput("operation needs edge labels on every edge")


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
        if not (x.is_numbered and y.is_numbered):
            raise ValueError("respect_numbers needs numberings on both sketches")
        xof = x.node_by_number()
        yof = y.node_by_number()
        for i in range(1, x.n + 1):
            xv, yv = xof[i], yof[i]
            if x.label[xv] != y.label[yv]:
                return False
            if x.numbering[x.parent[xv]] != y.numbering[y.parent[yv]]:
                return False
        return True
    return label_iso_map(x, y) is not None


def label_iso_map(x: HeapSketch, y: HeapSketch):
    """The unique label-respecting iso x -> y as a dict, or None.

    Returns None when shapes or labels disagree, or when duplicate sibling
    labels make the pairing ambiguous (no heap has those).
    """
    _require_labeled(x)
    _require_labeled(y)
    if x.n != y.n:
        return None
    mapping = {x.root: y.root}
    stack = [(x.root, y.root)]
    while stack:
        xu, yu = stack.pop()
        xkids = x.children[xu]
        ykids = y.children[yu]
        if len(xkids) != len(ykids):
            return None
        ymap = {}
        for yv in ykids:
            c = y.label[yv]
            if c in ymap:
                return None
            ymap[c] = yv
        seen = set()
        for xv in xkids:
            c = x.label[xv]
            if c in seen or c not in ymap:
                return None
            seen.add(c)
            mapping[xv] = ymap[c]
            stack.append((xv, ymap[c]))
    return mapping


def shape_codes(s: HeapSketch) -> dict:
    """Label-free canonical parenthesis code of the subtree under each node.

    Two subtrees have the same shape exactly when their codes are equal.
    """
    codes = {}
    stack = [(s.root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            codes[v] = "(" + "".join(sorted(codes[c] for c in s.children[v])) + ")"
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in s.children[v])
    return codes


def numbered_shape_equal(x: HeapSketch, y: HeapSketch) -> bool:
    """Shape equality under numberings, ignoring labels entirely."""
    if not (x.is_numbered and y.is_numbered):
        raise ValueError("both sketches must be numbered")
    if x.n != y.n:
        return False
    xof = x.node_by_number()
    yof = y.node_by_number()
    for i in range(1, x.n + 1):
        if x.numbering[x.parent[xof[i]]] != y.numbering[y.parent[yof[i]]]:
            return False
    return True
