"""Plain-text interchange format for heap sketches (PHT).

One directive per line; '#' starts a comment; blank lines are ignored.
Sections, in order:

    pht 1
    flags numbered=yes labeled=yes links=no
    alphabet abc            # optional
    root r
    edge r u a              # parent child letter ('-' when labels are off)
    edge u v b
    num r 0                 # only when numbered=yes, one line per node
    num u 1
    slink u r               # only when links=yes, one line per non-root node

Node ids are opaque tokens: no whitespace, no '#', and not the reserved
'-'.  Parents must be declared before their children.  The parser is
strict about flag/content agreement so a file cannot silently claim
annotations it does not carry.
"""

from .errors import FormatError, UnknownLetter
from .heap import Alphabet, _is_letter
from .sketch import HeapSketch, _check_numbers

_FLAG_NAMES = ("numbered", "labeled", "links")


def _check_id(token: str, lineno: int) -> str:
    if token == "-" or "#" in token:
        raise FormatError("bad node id %r" % token, lineno)
    return token


def _check_letter(token: str, lineno: int) -> str:
    if _is_letter(token):
        return token
    if all(map(_is_letter, token)) and len(set(token)) == len(token):
        raise FormatError("edge letter must be one symbol, got %r" % token, lineno)
    raise FormatError("bad edge letter %r" % token, lineno)


def _parse_flags(args, lineno: int) -> dict:
    flags = {}
    for token in args:
        name, eq, value = token.partition("=")
        if name not in _FLAG_NAMES or not eq or value not in ("yes", "no"):
            raise FormatError("bad flag %r" % token, lineno)
        if name in flags:
            raise FormatError("flag %r given twice" % name, lineno)
        flags[name] = value == "yes"
    missing = [name for name in _FLAG_NAMES if name not in flags]
    if missing:
        raise FormatError("missing flags: %s" % ", ".join(missing), lineno)
    return flags


def parse_pht(text: str) -> HeapSketch:
    """Parse PHT source into a HeapSketch; FormatError carries the line."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped.split()))
    if not lines:
        raise FormatError("empty input, expected 'pht 1' header")
    if lines[0][1] != ["pht", "1"]:
        raise FormatError("expected header 'pht 1'", lines[0][0])
    if len(lines) < 2 or lines[1][1][0] != "flags":
        raise FormatError("expected a flags line after the header")
    flags = _parse_flags(lines[1][1][1:], lines[1][0])

    alphabet_letters = None
    alphabet_line = None
    root = None
    index = {}  # node id -> i, filled with nodes, parent and letters as nodes are declared
    size = 1 + sum(tokens[0] == "edge" for _, tokens in lines)
    number = [None] * size
    link = [-1] * size

    for lineno, tokens in lines[2:]:
        word, args = tokens[0], tokens[1:]
        if word == "alphabet":
            if len(args) != 1:
                raise FormatError("alphabet takes one token of letters", lineno)
            if alphabet_letters is not None:
                raise FormatError("alphabet given twice", lineno)
            alphabet_letters, alphabet_line = args[0], lineno
        elif word == "root":
            if len(args) != 1:
                raise FormatError("root takes one node id", lineno)
            if root is not None:
                raise FormatError("root given twice", lineno)
            root = _check_id(args[0], lineno)
            index[root] = 0
            nodes, parent, letters = [root], [-1], [None]
        elif word == "edge":
            if len(args) != 3:
                raise FormatError("edge takes parent, child and letter", lineno)
            if root is None:
                raise FormatError("edge before root", lineno)
            p = index.get(_check_id(args[0], lineno))
            child = _check_id(args[1], lineno)
            if p is None:
                raise FormatError("unknown parent %r" % args[0], lineno)
            if child in index:
                raise FormatError("node %r declared twice" % child, lineno)
            if flags["labeled"]:
                letter = _check_letter(args[2], lineno)
            elif args[2] != "-":
                raise FormatError("labeled=no but edge carries a letter", lineno)
            else:
                letter = None
            index[child] = len(nodes)
            nodes.append(child)
            parent.append(p)
            letters.append(letter)
        elif word == "num":
            if not flags["numbered"]:
                raise FormatError("num line but numbered=no", lineno)
            if len(args) != 2:
                raise FormatError("num takes a node id and a number", lineno)
            i = index.get(args[0])
            if i is None:
                raise FormatError("unknown node %r" % args[0], lineno)
            if number[i] is not None:
                raise FormatError("node %r numbered twice" % args[0], lineno)
            try:
                value = int(args[1])
            except ValueError:
                raise FormatError("bad number %r" % args[1], lineno) from None
            if value < 0:
                raise FormatError("numbers must not be negative", lineno)
            number[i] = value
        elif word == "slink":
            if not flags["links"]:
                raise FormatError("slink line but links=no", lineno)
            if len(args) != 2:
                raise FormatError("slink takes two node ids", lineno)
            tail, head = map(index.get, args)
            if tail is None or head is None:
                raise FormatError("slink endpoints must be declared nodes", lineno)
            if tail == 0:
                raise FormatError("the root cannot carry a link", lineno)
            if link[tail] >= 0:
                raise FormatError("node %r linked twice" % args[0], lineno)
            link[tail] = head
        else:
            raise FormatError("unknown directive %r" % word, lineno)

    if root is None:
        raise FormatError("missing root line")
    given = size - number.count(None)
    if flags["numbered"] and given != size:
        raise FormatError("numbered=yes but %d of %d nodes have numbers" % (given, size))
    given = size - link.count(-1)
    if flags["links"] and given != size - 1:
        raise FormatError("links=yes but %d of %d non-root nodes have links" % (given, size - 1))

    alphabet = None
    if alphabet_letters is not None:
        try:
            alphabet = Alphabet(alphabet_letters)
        except UnknownLetter as exc:
            raise FormatError(str(exc), alphabet_line) from None
        for letter in letters:
            if letter is not None and letter not in alphabet:
                raise FormatError("edge letter %r is outside the declared alphabet" % letter)

    try:
        if flags["numbered"]:
            _check_numbers(number, size)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    number, link = (number if flags["numbered"] else None), (link if flags["links"] else None)
    return HeapSketch._of(root, (nodes, index, parent, letters), number, link, alphabet)


def write_pht(s: HeapSketch) -> str:
    """Serialize a sketch in canonical section order.

    Node ids are written with str(); they must stay distinct and printable
    as PHT tokens after that.
    """
    nodes, _, parent, letters = s.layout()
    names = [str(node) for node in nodes]
    for name in names:
        if name == "-" or "#" in name or not name or any(c.isspace() for c in name):
            raise ValueError("node id %r cannot be written as a PHT token" % name)
    if len(set(names)) != len(names):
        raise ValueError("node ids collide when written as strings")

    out = ["pht 1"]
    out.append(
        "flags numbered=%s labeled=%s links=%s"
        % tuple("yes" if flag else "no" for flag in (s.is_numbered, s.is_labeled, s.has_links))
    )
    if s.alphabet is not None:
        out.append("alphabet %s" % s.alphabet.letters)
    out.append("root %s" % names[0])
    edges = zip(parent[1:], names[1:], letters[1:])
    out.extend(["edge %s %s %s" % (names[p], name, "-" if c is None else c) for p, name, c in edges])
    if s.is_numbered:
        out.extend(["num %s %d" % pair for pair in zip(names, s._number)])
    if s.has_links:
        out.extend(["slink %s %s" % (names[i], names[t]) for i, t in enumerate(s._link) if t >= 0])
    return "\n".join(out) + "\n"
