"""Seeded request pools, request execution and answer checks.

A workload's pool is a fixed mix of requests: text lengths, alphabets and
request kinds are the same whatever the seed, and the seed only changes the
letters of the texts and the order of the requests.  Runs make whole passes over
the pool, which keeps the measured mix identical from run to run.

A pool is made in two steps.  draw(ph, seed) draws the texts and the request
order from the seed; it is the benchmark's own input generation.
prepare(ph, drawn) turns them into requests through the library
(build_position_heap, to_sketch, write_pht); that step is part of the
measured set-up.

Every request is checked after it returns, outside the timed window.  The
first answer to a pool request is checked in full; a repeat of the same
request must give an answer with the same digest, because the program is
deterministic.
"""

import hashlib
import random

LETTERS = "abcdefghijklmnopqrstuvwxyz"
MUTATION_RATE = 0.02


def make_text(rng, k, n, motif_len=0):
    """A valid text of length n over the first k letters.

    The last of the k letters is the end letter and occurs only at the end;
    every other position is drawn from the remaining k - 1 letters.  With a
    motif length, the prefix repeats a random motif of that length and each
    position is replaced by a random letter with probability 2%, which gives
    deep heaps.
    """
    letters = LETTERS[:k]
    body = letters[:-1]
    if motif_len:
        motif = [rng.choice(body) for _ in range(motif_len)]
        prefix = [
            rng.choice(body) if rng.random() < MUTATION_RATE else motif[i % motif_len]
            for i in range(n - 1)
        ]
    else:
        prefix = [rng.choice(body) for _ in range(n - 1)]
    return "".join(prefix) + letters[-1]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class Request:
    """One call into the library: op names the entry point, n the text length."""

    __slots__ = ("rid", "op", "n", "payload", "alphabet", "source")

    def __init__(self, rid, op, n, payload, alphabet=None, source=None):
        self.rid = rid
        self.op = op
        self.n = n
        self.payload = payload
        self.alphabet = alphabet
        self.source = source


class Outcome:
    """What one request returned: the answer and how many answers it streamed."""

    __slots__ = ("answer", "first_s", "answers")

    def __init__(self, answer, first_s=None, answers=1):
        self.answer = answer
        self.first_s = first_s
        self.answers = answers


def _order(rng, count):
    """A seeded permutation of range(count): the request order of a pool."""
    order = list(range(count))
    rng.shuffle(order)
    return order


def _size_grid(lo, hi, count):
    """count lengths spread evenly over [lo, hi], the same for every seed.

    Costs grow with n (cubically on count), so lengths drawn at random would
    move the latency percentiles from seed to seed.
    """
    width = (hi - lo) / count
    return [lo + int(width * (i + 0.5)) for i in range(count)]


# --- recover -----------------------------------------------------------------

# Per round, ten texts: 6 of 1k, 3 of 4k and 1 of 16k positions; each text
# is built once and recovered once under each of the four problems.  Rounds
# rotate the alphabets and the repetitive texts over the size slots.
RECOVER_SIZES = (1000,) * 6 + (4000,) * 3 + (16000,)
RECOVER_ALPHABETS = (3, 5, 17)
RECOVER_ROUNDS = 2
PROBLEM_FLAGS = {  # numbered, labeled, links: what each problem's input keeps
    "p1": (True, True, False),
    "p2": (True, False, False),
    "p3": (False, True, False),
    "p4": (False, False, True),
}


class Recover:
    name = "recover"

    def draw(self, ph, seed):
        rng = random.Random(seed)
        texts = []  # (alphabet size, text)
        for r in range(RECOVER_ROUNDS):
            for slot, n in enumerate(RECOVER_SIZES):
                k = RECOVER_ALPHABETS[(slot + r) % len(RECOVER_ALPHABETS)]
                repetitive = (slot + r) % 4 == 0
                texts.append((k, make_text(rng, k, n, 2 + slot % 5 if repetitive else 0)))
        return texts, _order(rng, len(texts) * (1 + len(PROBLEM_FLAGS)))

    def prepare(self, ph, drawn):
        texts, order = drawn
        requests = []
        for k, text in texts:
            alphabet = ph.Alphabet(LETTERS[:k])
            heap = ph.build_position_heap(text)
            requests.append(Request(len(requests), "build", len(text), text))
            for op, (numbered, labeled, links) in PROBLEM_FLAGS.items():
                doc = ph.write_pht(heap.to_sketch(numbered=numbered, labeled=labeled, links=links))
                requests.append(Request(len(requests), op, len(text), doc, alphabet, text))
        return [requests[i] for i in order]

    def call(self, ph, req, clock):
        if req.op == "build":
            # as `posheap build TEXT` does
            sketch = ph.build_position_heap(req.payload).to_sketch(numbered=True, labeled=True, links=True)
            return Outcome(ph.write_pht(sketch))
        sketch = ph.parse_pht(req.payload)
        if req.op == "p1":
            found = ph.infer_p1(sketch)
        elif req.op == "p2":
            found = ph.infer_p2(sketch, req.alphabet)
        elif req.op == "p3":
            found = ph.infer_p3(sketch)
        else:
            found = ph.infer_p4(sketch, req.alphabet)
        return Outcome(found)

    def answer_digest(self, req, outcome):
        answer = outcome.answer
        return digest(answer if req.op == "build" or answer is None else answer.text)

    def check(self, ph, req, outcome):
        answer = outcome.answer
        if req.op == "build":
            return ph.write_pht(ph.parse_pht(answer)) == answer
        if answer is None:
            return False
        sketch = ph.parse_pht(req.payload)
        if req.op == "p1":
            return answer.text == req.source and ph.text_matches(answer.text, sketch, 1)
        if req.op == "p4":
            return links_match(ph, answer.text, sketch, answer.labels)
        return ph.text_matches(answer.text, sketch, int(req.op[1]))


def links_match(ph, text, sketch, labels):
    """True iff the heap of text is the link-only sketch, proven via labels.

    text_matches(text, sketch, 4) searches the isomorphism by recursion, one
    level per node, which exceeds the interpreter's recursion limit from a
    thousand nodes on.  The answer carries the labels it assigned, so the
    label-respecting isomorphism between the rebuilt heap and the relabeled
    sketch is unique; the match holds iff it exists and carries every link
    onto a link.
    """
    if not ph.is_valid_text(text):
        return False
    built = ph.build_position_heap(text)
    iso = ph.label_iso_map(
        built.to_sketch(numbered=False, labeled=True, links=False), sketch.with_labels(labels)
    )
    if iso is None:
        return False
    return all(sketch.links.get(iso[v]) == iso[built.slink[v]] for v in range(1, built.n + 1))


# --- count -------------------------------------------------------------------

COUNT_SIZES = (100, 220)
COUNT_PER_PROBLEM = 8
COUNT_ALPHABETS = (3, 4, 8)
# Small instances for the independent cross-checks: enumeration length at
# every size, brute force where 3**n candidate texts stay cheap.
COUNT_SMALL = ((7, 3), (8, 3), (9, 3), (12, 3), (14, 4), (16, 3))
BRUTE_FORCE_MAX_N = 10


def problem_sketch(heap, op):
    """The input of problem 3 (labels only) or 4 (links only), by the op's last digit."""
    if op.endswith("3"):
        return heap.to_sketch(numbered=False, labeled=True, links=False)
    return heap.to_sketch(numbered=False, labeled=False, links=True)


def class_size(ph, req):
    """count_p3 or count_p4 of the request's sketch, by the op's last digit."""
    if req.op.endswith("3"):
        return ph.count_p3(req.payload)
    return ph.count_p4(req.payload, req.alphabet)


def class_stream(ph, req):
    """enum_p3 or enum_p4 of the request's sketch, by the op's last digit."""
    if req.op.endswith("3"):
        return ph.enum_p3(req.payload)
    return ph.enum_p4(req.payload, req.alphabet)


class Count:
    name = "count"

    def draw(self, ph, seed):
        rng = random.Random(seed)
        texts = []  # (op, alphabet size, text)
        for op in ("count3", "count4"):
            for i, n in enumerate(_size_grid(*COUNT_SIZES, COUNT_PER_PROBLEM)):
                k = COUNT_ALPHABETS[i % len(COUNT_ALPHABETS)]
                texts.append((op, k, make_text(rng, k, n, 2 + i % 3 if i % 4 == 0 else 0)))
        return texts, _order(rng, len(texts))

    def prepare(self, ph, drawn):
        texts, order = drawn
        requests = []
        for op, k, text in texts:
            sketch = problem_sketch(ph.build_position_heap(text), op)
            requests.append(Request(len(requests), op, len(text), sketch, ph.Alphabet(LETTERS[:k])))
        return [requests[i] for i in order]

    def call(self, ph, req, clock):
        return Outcome(class_size(ph, req))

    def answer_digest(self, req, outcome):
        return digest(outcome.answer)

    def check(self, ph, req, outcome):
        return isinstance(outcome.answer, int) and outcome.answer >= 1


def small_count_failures(ph, seed):
    """Cross-check count_p3/count_p4 against enumeration and brute force.

    Returns the number of small instances on which the counting kernel and
    an independent code path disagree.
    """
    rng = random.Random(seed ^ 0x5EED)
    failures = 0
    for n, k in COUNT_SMALL:
        heap = ph.build_position_heap(make_text(rng, k, n))
        alphabet = ph.Alphabet(LETTERS[:k])
        for op in ("count3", "count4"):
            req = Request(0, op, n, problem_sketch(heap, op), alphabet)
            counted = class_size(ph, req)
            listed = list(class_stream(ph, req))
            ok = counted >= 1 and counted == len(listed) == len(set(listed))
            if ok and n <= BRUTE_FORCE_MAX_N:
                ok = sorted(listed) == ph.brute_force_texts(req.payload, int(op[-1]), alphabet)
            failures += not ok
    return failures


# --- enumerate ---------------------------------------------------------------

ENUM_LIMIT = 200
# A quarter of the streams end before the limit and the rest are cut at it,
# so the latency percentiles fall inside the cut streams rather than in the
# gap between the two kinds.  Texts are drawn until the class size falls on
# the wanted side of the limit, which keeps that share the same for every
# seed; small classes come from the shorter texts, where they are common,
# and large ones from the longer texts.
ENUM_MIX = (  # lengths, class sizes [lo, hi), requests per problem
    ((24, 36), (1, ENUM_LIMIT), 8),
    ((36, 48), (ENUM_LIMIT, None), 24),
)
ENUM_MAX_DRAWS = 200


class Enumerate:
    name = "enumerate"

    def draw(self, ph, seed):
        """The texts, each drawn until its class size falls on the wanted side of the limit."""
        rng = random.Random(seed)
        alphabet = ph.Alphabet(LETTERS[:3])
        texts = []  # (op, text)
        for op in ("enum3", "enum4"):
            for sizes, (lo, hi), count in ENUM_MIX:
                for n in _size_grid(*sizes, count):
                    for _ in range(ENUM_MAX_DRAWS):
                        text = make_text(rng, 3, n)
                        req = Request(0, op, n, problem_sketch(ph.build_position_heap(text), op), alphabet)
                        size = class_size(ph, req)
                        if size >= lo and (hi is None or size < hi):
                            break
                    texts.append((op, text))
        return texts, _order(rng, len(texts))

    def prepare(self, ph, drawn):
        texts, order = drawn
        alphabet = ph.Alphabet(LETTERS[:3])
        requests = []
        for op, text in texts:
            sketch = problem_sketch(ph.build_position_heap(text), op)
            requests.append(Request(len(requests), op, len(text), sketch, alphabet))
        return [requests[i] for i in order]

    def call(self, ph, req, clock):
        start = clock()
        stream = class_stream(ph, req)
        texts = []
        first_s = None
        for text in stream:
            if first_s is None:
                first_s = clock() - start
            texts.append(text)
            if len(texts) == ENUM_LIMIT:
                break
        stream.close()
        return Outcome(texts, first_s, len(texts))

    def answer_digest(self, req, outcome):
        return digest(outcome.answer)

    def check(self, ph, req, outcome):
        texts = outcome.answer
        if not texts or len(set(texts)) != len(texts):
            return False
        if not all(ph.text_matches(text, req.payload, int(req.op[-1])) for text in texts):
            return False
        return len(texts) == ENUM_LIMIT or len(texts) == class_size(ph, req)


WORKLOADS = {w.name: w for w in (Recover(), Count(), Enumerate())}
