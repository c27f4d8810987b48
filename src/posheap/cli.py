"""Command line front end.

Subcommands mirror the library: build a heap from a text, and infer, count,
enumerate or verify source texts for a sketch file in PHT form.  Exit codes:
0 success, 1 well-formed but unsolvable or mismatching instance, 2 bad
usage or malformed input.
"""

import argparse
import random
import sys

from .dot import export_dot
from .errors import (
    AlphabetTooSmall,
    CapExceeded,
    FormatError,
    InvalidText,
    NegativeSigma,
    NoSuchChild,
    UnknownLetter,
    UnlabeledInput,
)
from .heap import Alphabet, build_position_heap
from .infer import (
    ProblemKind,
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
from .oracle import brute_force_texts, random_valid_text, text_matches
from .pht import parse_pht, write_pht
from .trace import build_trace_graph, compute_sigma, reconstruct_suffix_links

_STRIP = {
    # problem -> (numbered, labeled, links) kept when generating instances
    1: (True, True, False),
    2: (True, False, False),
    3: (False, True, False),
    4: (False, False, True),
}


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load(path: str):
    return parse_pht(_read_source(path))


def _pick_problem(args, sketch) -> int:
    if args.problem is not None:
        return args.problem
    return ProblemKind.for_sketch(sketch).value


def _instance(args):
    """(sketch, problem, alphabet) for a command that reads a PHT file.

    The --alphabet flag wins, then the file's alphabet line; 2 and 4 need one.
    """
    sketch = _load(args.file)
    problem = _pick_problem(args, sketch)
    alphabet = Alphabet(args.alphabet) if args.alphabet else sketch.alphabet
    if alphabet is None and problem in (2, 4):
        raise _Usage("problem %d needs --alphabet (or an alphabet line in the file)" % problem)
    return sketch, problem, alphabet


class _Usage(Exception):
    pass


def _call(problem: int, entries, sketch, alphabet):
    """entries[problem - 1] on the sketch, with the alphabet for problems 2 and 4."""
    fn = entries[problem - 1]
    return fn(sketch, alphabet) if problem in (2, 4) else fn(sketch)


def _cmd_build(args) -> int:
    alphabet = Alphabet(args.alphabet) if args.alphabet else None
    text = _read_source("-").strip() if args.text == "-" else args.text
    heap = build_position_heap(text, alphabet)
    sketch = heap.to_sketch(numbered=True, labeled=True, links=True)
    sketch.alphabet = alphabet
    rendered = export_dot(sketch) if args.dot else write_pht(sketch)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_infer(args) -> int:
    sketch, problem, alphabet = _instance(args)
    found = _call(problem, (infer_p1, infer_p2, infer_p3, infer_p4), sketch, alphabet)
    if found is None:
        print("invalid")
        return 1
    print(found.text)
    return 0


def _cmd_count(args) -> int:
    sketch, problem, alphabet = _instance(args)
    if problem == 1:
        value = 1 if infer_p1(sketch) is not None else 0
    else:
        value = _call(problem, (None, count_p2, count_p3, count_p4), sketch, alphabet)
    print(value)
    return 0 if value > 0 else 1


def _cmd_enum(args) -> int:
    sketch, problem, alphabet = _instance(args)
    if problem == 1:
        found = infer_p1(sketch)
        stream = iter([found.text]) if found is not None else iter([])
    else:
        stream = _call(problem, (None, enum_p2, enum_p3, enum_p4), sketch, alphabet)
    emitted = 0
    for text in stream:
        print(text)
        emitted += 1
        if args.limit is not None and emitted >= args.limit:
            break
    return 0 if emitted else 1


def _cmd_verify(args) -> int:
    sketch = _load(args.file)
    problem = _pick_problem(args, sketch)
    if text_matches(args.text, sketch, problem):
        print("ok")
        return 0
    print("mismatch", file=sys.stderr)
    return 1


def _cmd_export_dot(args) -> int:
    sketch = _load(args.file)
    if args.trace:
        links = dict(sketch.links) if sketch.has_links else reconstruct_suffix_links(sketch)
        sigma = compute_sigma(sketch, links)
        rendered = export_dot(build_trace_graph(sketch, links, sigma))
    else:
        rendered = export_dot(sketch)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_oracle(args) -> int:
    sketch, problem, alphabet = _instance(args)
    texts = brute_force_texts(sketch, problem, alphabet, max_len=args.max_len)
    for text in texts:
        print(text)
    return 0 if texts else 1


def _cmd_gen(args) -> int:
    alphabet = Alphabet(args.alphabet)
    rng = random.Random(args.seed)
    text = random_valid_text(rng, alphabet, args.length)
    if args.problem is None:
        print(text)
        return 0
    heap = build_position_heap(text, alphabet)
    numbered, labeled, links = _STRIP[args.problem]
    sketch = heap.to_sketch(numbered=numbered, labeled=labeled, links=links)
    if args.problem in (2, 4):
        sketch.alphabet = alphabet
    if args.reveal:
        sys.stdout.write("# text %s\n" % text)
    sys.stdout.write(write_pht(sketch))
    return 0


def _problem_flag(parser) -> None:
    parser.add_argument(
        "--problem",
        "-p",
        type=int,
        choices=(1, 2, 3, 4),
        default=None,
        help="which annotations count (default: everything the file carries)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posheap",
        description="Position heaps with suffix links, and text recovery from partial ones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the heap of TEXT and print it as PHT")
    p.add_argument("text")
    p.add_argument("--alphabet", help="letters in tie-break order (default: derived)")
    p.add_argument("--dot", action="store_true", help="print Graphviz instead of PHT")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_build)

    def solver(name, run, help_text):
        """A subcommand over a PHT file that takes --problem and --alphabet."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        _problem_flag(p)
        p.add_argument("--alphabet", help="letters for problems 2 and 4")
        p.set_defaults(run=run)
        return p

    solver("infer", _cmd_infer, "recover one source text from a PHT file")
    solver("count", _cmd_count, "count all consistent source texts")
    p = solver("enum", _cmd_enum, "stream all consistent source texts")
    p.add_argument("--limit", type=int, help="stop after this many texts")

    p = sub.add_parser("verify", help="check a text against a PHT file")
    p.add_argument("file")
    p.add_argument("text")
    _problem_flag(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("export-dot", help="render a PHT file as Graphviz")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="render the trace graph instead")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_export_dot)

    p = solver("oracle", _cmd_oracle, "brute-force the consistent texts (small inputs)")
    p.add_argument("--max-len", type=int, default=10)

    p = sub.add_parser("gen", help="generate a random valid text, or a PHT instance with --problem")
    p.add_argument("--len", "-n", dest="length", type=int, required=True)
    p.add_argument("--alphabet", default="ab")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--problem", "-p", type=int, choices=(1, 2, 3, 4), default=None)
    p.add_argument("--reveal", action="store_true", help="with --problem, prepend the source text as a comment")
    p.set_defaults(run=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        return 0
    except (InvalidText, NoSuchChild, NegativeSigma) as exc:
        print("invalid: %s" % exc, file=sys.stderr)
        return 1
    except (FormatError, UnknownLetter, UnlabeledInput, AlphabetTooSmall, CapExceeded, _Usage, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
