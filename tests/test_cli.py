"""End-to-end checks for the command line interface.

Every test drives ``posheap.cli.main`` in-process with an argv list and
captures stdout/stderr through capsys, so the whole file runs in well under
a second.  Exit code conventions under test: 0 success, 1 invalid instance,
2 usage or format error.
"""

from pathlib import Path

import pytest

from posheap import build_position_heap, parse_pht, write_pht
from posheap.cli import main

DATA = Path(__file__).parent / "data"
NUMBERED = str(DATA / "heap_abaababc_numbered.pht")
SHAPE = str(DATA / "heap_abaababc_shape.pht")
LABELED = str(DATA / "heap_abaababc_labeled.pht")
LINKS = str(DATA / "heap_abaababc_links.pht")

P3_TEXTS = {
    "aaabbabc",
    "aabbaabc",
    "abaababc",
    "ababaabc",
    "baaababc",
    "baabaabc",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# build


def test_build_emits_parseable_document(capsys, tmp_path):
    code, out, err = run(capsys, "build", "abaababc")
    assert code == 0 and err == ""
    s = parse_pht(out)
    assert s.n == 8 and s.is_labeled and s.is_numbered and s.links
    # canonical writer output is byte-stable
    assert write_pht(s) == out


def test_build_dot(capsys):
    code, out, _ = run(capsys, "build", "abaababc", "--dot")
    assert code == 0
    assert out.startswith("digraph") and "style=dashed" in out


def test_build_output_file(capsys, tmp_path):
    target = tmp_path / "out.pht"
    code, out, _ = run(capsys, "build", "abc", "-o", str(target))
    assert code == 0 and out == ""
    assert parse_pht(target.read_text()).n == 3


def test_build_rejects_repeated_final_letter(capsys):
    code, _, err = run(capsys, "build", "aa")
    assert code == 1 and "invalid" in err


def test_build_rejects_letter_outside_alphabet(capsys):
    code, _, err = run(capsys, "build", "ab", "--alphabet", "a")
    assert code == 2 and "error" in err


def test_build_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("abc\n"))
    code, out, _ = run(capsys, "build", "-")
    assert code == 0
    assert parse_pht(out).n == 3


# infer


def test_infer_numbered_labeled(capsys):
    code, out, _ = run(capsys, "infer", NUMBERED)
    assert code == 0 and out.strip() == "abaababc"


def test_infer_shape_needs_alphabet(capsys):
    code, _, err = run(capsys, "infer", SHAPE)
    assert code == 2 and "alphabet" in err


def test_infer_shape_with_alphabet(capsys):
    code, out, _ = run(capsys, "infer", SHAPE, "--alphabet", "abc")
    assert code == 0
    text = out.strip()
    # shape-only answer must rebuild to the same numbered tree
    assert build_position_heap(text).to_sketch(numbered=True).n == 8


def test_infer_labeled(capsys):
    code, out, _ = run(capsys, "infer", LABELED)
    assert code == 0 and out.strip() in P3_TEXTS


def test_infer_links(capsys):
    code, out, _ = run(capsys, "infer", LINKS)
    assert code == 0 and len(out.strip()) == 8


def test_infer_problem_override(capsys):
    # the numbered+labeled fixture also admits the shape-only reading;
    # its root has three children so the alphabet needs three letters
    code, _, err = run(capsys, "infer", NUMBERED, "--problem", "2",
                       "--alphabet", "ab")
    assert code == 2 and "error" in err
    code, out, _ = run(capsys, "infer", NUMBERED, "--problem", "2",
                       "--alphabet", "abc")
    assert code == 0 and len(out.strip()) == 8


def test_infer_invalid_prints_invalid(capsys, tmp_path):
    # all-'a' labels cannot come from any text: last letter must be unique
    bad = tmp_path / "bad.pht"
    bad.write_text(
        "pht 1\n"
        "flags numbered=no labeled=yes links=no\n"
        "root r\n"
        "edge r x a\n"
        "edge x y a\n"
    )
    code, out, _ = run(capsys, "infer", str(bad))
    assert code == 1 and out.strip() == "invalid"


def test_infer_malformed_file(capsys, tmp_path):
    doc = tmp_path / "junk.pht"
    doc.write_text("pht 1\nflags numbered=no labeled=yes links=no\nedge a b c\n")
    code, _, err = run(capsys, "infer", str(doc))
    assert code == 2 and "error" in err


def test_infer_missing_file(capsys):
    code, _, err = run(capsys, "infer", "/no/such/file.pht")
    assert code == 2 and err != ""


# count


def test_count_labeled(capsys):
    code, out, _ = run(capsys, "count", LABELED)
    assert code == 0 and out.strip() == "6"


def test_count_shape(capsys):
    # 3 root children, alphabet of 3: falling factorial 3*2*1
    code, out, _ = run(capsys, "count", SHAPE, "--alphabet", "abc")
    assert code == 0 and out.strip() == "6"


def test_count_links(capsys):
    code, out, _ = run(capsys, "count", LINKS)
    assert code == 0 and out.strip() == "36"


def test_count_numbered_is_indicator(capsys):
    code, out, _ = run(capsys, "count", NUMBERED)
    assert code == 0 and out.strip() == "1"


def test_count_zero_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.pht"
    bad.write_text(
        "pht 1\n"
        "flags numbered=no labeled=yes links=no\n"
        "root r\n"
        "edge r x a\n"
        "edge x y a\n"
    )
    code, out, _ = run(capsys, "count", str(bad))
    assert code == 1 and out.strip() == "0"


# enum


def test_enum_labeled(capsys):
    code, out, _ = run(capsys, "enum", LABELED)
    assert code == 0
    assert set(out.split()) == P3_TEXTS and len(out.split()) == 6


def test_enum_limit(capsys):
    code, out, _ = run(capsys, "enum", LABELED, "--limit", "2")
    assert code == 0 and len(out.split()) == 2


def test_enum_links_count_matches(capsys):
    code, out, _ = run(capsys, "enum", LINKS)
    lines = out.split()
    assert code == 0 and len(lines) == 36 and len(set(lines)) == 36


def test_enum_empty_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.pht"
    bad.write_text(
        "pht 1\n"
        "flags numbered=no labeled=yes links=no\n"
        "root r\n"
        "edge r x a\n"
        "edge x y a\n"
    )
    code, out, _ = run(capsys, "enum", str(bad))
    assert code == 1 and out == ""


# verify


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", LABELED, "abaababc")
    assert code == 0 and out.strip() == "ok"


def test_verify_mismatch(capsys):
    code, _, err = run(capsys, "verify", LABELED, "aabbabac")
    assert code == 1 and "mismatch" in err


def test_verify_respects_problem_kind(capsys):
    # aaabbabc matches the labeled tree up to isomorphism (problem 3)
    # but not the numbered fixture, which pins every position
    code, out, _ = run(capsys, "verify", LABELED, "aaabbabc")
    assert code == 0
    code, _, err = run(capsys, "verify", NUMBERED, "aaabbabc")
    assert code == 1


def test_verify_links_problem_needs_links(capsys):
    code, _, err = run(capsys, "verify", LABELED, "abaababc", "-p", "4")
    assert code == 2 and "link map" in err


# export-dot


def test_export_dot_sketch(capsys):
    code, out, _ = run(capsys, "export-dot", LABELED)
    assert code == 0 and out.startswith("digraph")


def test_export_dot_trace(capsys):
    code, out, _ = run(capsys, "export-dot", LABELED, "--trace")
    assert code == 0 and "penwidth" in out


def test_export_dot_output_file(capsys, tmp_path):
    target = tmp_path / "g.dot"
    code, out, _ = run(capsys, "export-dot", LINKS, "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph")


def test_export_dot_trace_missing_child_is_invalid(capsys, tmp_path):
    # the link of v would be the b-child of the root, which does not exist
    doc = tmp_path / "nochild.pht"
    doc.write_text(
        "pht 1\n"
        "flags numbered=no labeled=yes links=no\n"
        "root r\n"
        "edge r u a\n"
        "edge u v b\n"
    )
    code, out, err = run(capsys, "export-dot", str(doc), "--trace")
    assert code == 1 and out == "" and err.startswith("invalid:")


def test_export_dot_trace_negative_sigma_is_invalid(capsys, tmp_path):
    # c and d both link to the leaf a, which only one walk step can leave
    doc = tmp_path / "negsigma.pht"
    doc.write_text(
        "pht 1\n"
        "flags numbered=no labeled=no links=yes\n"
        "root r\n"
        "edge r a -\nedge r b -\nedge r x -\nedge b c -\nedge x d -\n"
        "slink a r\nslink b r\nslink x r\nslink c a\nslink d a\n"
    )
    code, out, err = run(capsys, "export-dot", str(doc), "--trace")
    assert code == 1 and out == "" and err.startswith("invalid:")


# oracle


def test_oracle_matches_enum(capsys):
    code, out, _ = run(capsys, "oracle", LABELED)
    assert code == 0
    assert out.split() == sorted(P3_TEXTS)


def test_oracle_cap(capsys, tmp_path):
    doc = tmp_path / "long.pht"
    h = build_position_heap("ababababab" + "c")
    doc.write_text(write_pht(h.to_sketch(labeled=True)))
    code, _, err = run(capsys, "oracle", str(doc))
    assert code == 2 and "error" in err
    code, out, _ = run(capsys, "oracle", str(doc), "--max-len", "11")
    assert code == 0 and out.strip() != ""


# gen


def test_gen_text_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "--len", "9", "--alphabet", "ab",
                        "--seed", "7")
    assert code == 0 and len(out1.strip()) == 9
    _, out2, _ = run(capsys, "gen", "--len", "9", "--alphabet", "ab",
                     "--seed", "7")
    assert out1 == out2
    # generated text builds cleanly
    build_position_heap(out1.strip())


def test_gen_problem_emits_parseable_instance(capsys):
    code, out, _ = run(capsys, "gen", "--len", "7", "--alphabet", "ab",
                       "--seed", "3", "--problem", "3")
    assert code == 0
    s = parse_pht(out)
    assert s.is_labeled and not s.is_numbered and not s.links


def test_gen_reveal_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--len", "8", "--alphabet", "ab",
                       "--seed", "11", "--problem", "1", "--reveal")
    assert code == 0
    source = out.splitlines()[0].split()[-1]
    doc = tmp_path / "gen.pht"
    doc.write_text(out)
    code, answer, _ = run(capsys, "infer", str(doc))
    assert code == 0 and answer.strip() == source


def test_gen_rejects_unusable_length(capsys):
    code, _, err = run(capsys, "gen", "--len", "5", "--alphabet", "a",
                       "--seed", "1")
    assert code == 2 and "error" in err


# argument plumbing


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_no_arguments_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
