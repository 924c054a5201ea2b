import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subtreecount as sc
from subtreecount import BiPoly, bc_enum, cli, parse_edge_list, random_tree, subtree_enum
from subtreecount.cli import build_parser, main
from subtreecount.experiments import aggregate_path

P = BiPoly.parse

PATH3 = "a b\nb c\n"
T1_LINES = (
    ["A M", "M H"]
    + [f"A a{i}" for i in range(1, 5)]
    + [f"M m{i}" for i in range(1, 5)]
)


@pytest.fixture
def path3_file(tmp_path):
    f = tmp_path / "path3.txt"
    f.write_text(PATH3)
    return str(f)


@pytest.fixture
def t1_file(tmp_path):
    f = tmp_path / "t1.txt"
    f.write_text("\n".join(T1_LINES) + "\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdin_of(data: bytes | str):
    """Patch ``sys.stdin`` to hold ``data`` (a str as UTF-8) behind a latin-1
    text layer, which the CLI must not read through: it reads the bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))


def test_subtrees_count(capsys, path3_file):
    code, out, _ = run(capsys, "subtrees", "--k", "2", path3_file)
    assert code == 0
    assert out == "6\n"


def test_subtrees_genfun_golden(capsys, t1_file):
    code, out, _ = run(
        capsys, "subtrees", "--k", "4", "--contains", "A,H", "--genfun", t1_file
    )
    assert code == 0
    assert out.strip() == (
        "1*y^3*z^2 + 8*y^4*z^3 + 28*y^5*z^4 + 52*y^6*z^5 + 52*y^7*z^6 + 24*y^8*z^7"
    )


def test_bc_count(capsys, path3_file):
    code, out, _ = run(capsys, "bc", "--k", "2", path3_file)
    assert code == 0
    assert out == "1\n"


def test_stdin_input(capsys):
    with stdin_of(PATH3):
        code, out, _ = run(capsys, "subtrees", "--k", "2")
    assert code == 0
    assert out == "6\n"


def test_contains_single(capsys, path3_file):
    code, out, _ = run(capsys, "subtrees", "--k", "2", "--contains", "b", path3_file)
    assert code == 0
    assert out == "4\n"


def test_genfun_json_round_trip(capsys, path3_file):
    code, out, _ = run(capsys, "subtrees", "--k", "2", "--genfun", "--json", path3_file)
    assert code == 0
    assert BiPoly.from_json(json.loads(out)) == P("3*y + 2*y^2*z + y^3*z^2")


def test_genfun_agrees_with_count(capsys, t1_file):
    code, out, _ = run(capsys, "bc", "--k", "3", "--genfun", t1_file)
    assert code == 0
    code, count_out, _ = run(capsys, "bc", "--k", "3", t1_file)
    assert P(out.strip()).eval_counts() == int(count_out)


def test_exact_degree_flag(capsys, tmp_path):
    star = tmp_path / "star3.txt"
    star.write_text("c l1\nc l2\nc l3\n")
    code, out, _ = run(capsys, "subtrees", "--k", "3", "--exact-degree", str(star))
    assert code == 0
    assert out == "1\n"
    code, out, _ = run(
        capsys, "subtrees", "--k", "3", "--exact-degree", "--genfun", str(star)
    )
    assert out.strip() == "1*y^4*z^3"
    code, out, _ = run(capsys, "bc", "--k", "3", "--exact-degree", str(star))
    assert code == 0
    assert out == "1\n"


def test_oracle_matches_main_subcommands(capsys, tmp_path):
    tree_file = tmp_path / "t.txt"
    t = random_tree(7, 99)
    tree_file.write_text("".join(f"{u} {v}\n" for u, v in t.edges))
    for flags, mirrored in [
        (["--k", "3"], ["--family", "subtree"]),
        (["--k", "3", "--contains", "v1"], ["--family", "subtree"]),
        (["--k", "3", "--contains", "v1,v2", "--genfun"], ["--family", "subtree"]),
        (["--k", "2", "--exact-degree"], ["--family", "subtree"]),
        # v1 and v4 are adjacent: the one pair that counts at k = 1
        (["--k", "1", "--exact-degree", "--contains", "v1,v4"], ["--family", "subtree"]),
        (["--k", "3", "--exact-degree", "--contains", "v1"], ["--family", "subtree"]),
    ]:
        _, expected, _ = run(capsys, "subtrees", *flags, str(tree_file))
        _, got, _ = run(capsys, "oracle", *flags, *mirrored, str(tree_file))
        assert got == expected, flags
    for flags in (["--k", "2"], ["--k", "3", "--contains", "v1", "--genfun"],
                  ["--k", "3", "--exact-degree"],
                  ["--k", "3", "--exact-degree", "--contains", "v1,v2"]):
        _, expected, _ = run(capsys, "bc", *flags, str(tree_file))
        _, got, _ = run(capsys, "oracle", *flags, "--family", "bc", str(tree_file))
        assert got == expected, flags


def test_random_tree_output_parses(capsys):
    code, out, _ = run(capsys, "random-tree", "--n", "8", "--seed", "5")
    assert code == 0
    assert parse_edge_list(out) == random_tree(8, 5)
    code, again, _ = run(capsys, "random-tree", "--n", "8", "--seed", "5")
    assert again == out


def test_ratio_writes_csv(capsys, tmp_path):
    out_file = tmp_path / "ratios.csv"
    code, _, _ = run(
        capsys, "ratio", "--n", "6", "--samples", "3", "--kmax", "3",
        "--seed", "7", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "n,k,sample_id,ratio"
    assert len(lines) == 1 + 3 * 3  # k in 1..3, three samples
    assert aggregate_path(out_file).exists()


def test_usage_errors_exit_1(capsys, path3_file):
    assert run(capsys, "subtrees", path3_file)[0] == 1  # --k missing
    assert run(capsys, "subtrees", "--k", "x", path3_file)[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "subtrees", "--k", "2", "--json", path3_file)[0] == 1
    assert run(capsys, "subtrees", "--k", "2", "--contains", "a,b,c", path3_file)[0] == 1
    assert run(capsys, "ratio", "--n", "4", "--samples", "0", "--kmax", "2",
               "--seed", "1", "--out", "x.csv")[0] == 1
    assert run(capsys, "ratio", "--n", "5", "--samples", "2", "--kmax", "1",
               "--seed", "0", "--family", "bc", "--out", "x.csv")[0] == 1
    for n in ("0", "-3"):
        code, out, err = run(capsys, "random-tree", "--n", n, "--seed", "1")
        assert (code, out) == (1, "") and err.startswith("usage error")


def test_calls_in_one_process_share_no_state(capsys, tmp_path, path3_file):
    assert build_parser() is build_parser()
    code, out, err = run(capsys, "subtrees", "--k", "x", path3_file)
    assert (code, out) == (1, "") and err.startswith("usage error")
    assert run(capsys, "bc", "--k", "2", path3_file) == (0, "1\n", "")
    out_file = tmp_path / "r.csv"
    code, out, err = run(
        capsys, "ratio", "--n", "5", "--samples", "2", "--kmax", "3",
        "--seed", "0", "--family", "bc", "--out", str(out_file),
    )
    assert (code, out, err) == (0, "", "")
    assert len(out_file.read_text().splitlines()) == 1 + 2 * 2  # k in 2..3
    assert run(capsys, "subtrees", "--k", "2", path3_file) == (0, "6\n", "")


def test_data_errors_exit_2(capsys, tmp_path, path3_file):
    cyclic = tmp_path / "cycle.txt"
    cyclic.write_text("a b\nb c\nc a\n")
    code, _, err = run(capsys, "subtrees", "--k", "2", str(cyclic))
    assert code == 2 and err
    assert run(capsys, "subtrees", "--k", "2", "--contains", "zz", path3_file)[0] == 2
    no_zz = (2, "", "error: no vertex 'zz'\n")
    for contains in ("zz,a", "a,zz"):  # the BC pair count checks both anchors first
        assert run(capsys, "bc", "--k", "3", "--contains", contains, path3_file) == no_zz
    assert run(capsys, "subtrees", "--k", "2", "--contains", "a,a", path3_file)[0] == 2
    assert run(capsys, "bc", "--k", "1", path3_file)[0] == 2
    big = tmp_path / "big.txt"
    big.write_text("".join(f"{u} {v}\n" for u, v in random_tree(16, 0).edges))
    assert run(capsys, "oracle", "--k", "2", str(big))[0] == 2
    assert run(capsys, "subtrees", "--k", "2", str(tmp_path / "missing.txt"))[0] == 2
    with mock.patch.object(sys, "stdin", None):  # closed, as under <&-
        code, out, err = run(capsys, "subtrees", "--k", "2")
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    for argv in (["random-tree", "--n", "5", "--seed", "1"],
                 ["subtrees", "--k", "2", path3_file],
                 ["bc", "--k", "2", "--genfun", path3_file],
                 ["subtrees", "--k", "2", "--genfun", "--json", path3_file],
                 ["oracle", "--k", "2", path3_file]):
        with mock.patch.object(sys, "stdout", None):  # closed, as under >&-
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    out_file = tmp_path / "closed.csv"
    with mock.patch.object(sys, "stdout", None):  # ratio writes only its files
        code, out, err = run(capsys, "ratio", "--n", "5", "--samples", "2", "--kmax", "3",
                             "--seed", "0", "--out", str(out_file))
    assert (code, out, err) == (0, "", "")
    assert out_file.exists() and aggregate_path(out_file).exists()


def test_a_result_past_the_int_string_limit_exits_2(capsys, tmp_path):
    # A star on 2,400 vertices has 2^2399 + 2399 subtrees: 723 digits.
    star = tmp_path / "star.txt"
    star.write_text("".join(f"h l{i}\n" for i in range(2399)))
    expected = f"{2**2399 + 2399}\n"
    assert run(capsys, "subtrees", "--k", "3000", str(star)) == (0, expected, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for flags in ([], ["--genfun"], ["--genfun", "--json"]):
            code, out, err = run(capsys, "subtrees", "--k", "3000", *flags, str(star))
            assert (code, out) == (2, ""), flags
            assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    finally:
        sys.set_int_max_str_digits(limit)


def test_input_one_character_over_the_limit_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "MAX_INPUT_CHARS", len(PATH3) - 1)
    over = tmp_path / "over.txt"
    over.write_text(PATH3)
    code, out, err = run(capsys, "subtrees", "--k", "2", str(over))
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


def test_stdin_one_character_over_the_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_INPUT_CHARS", len(PATH3) - 1)
    with stdin_of(PATH3):
        code, out, err = run(capsys, "subtrees", "--k", "2")
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


def test_input_exactly_at_the_limit_counts(capsys, monkeypatch, path3_file):
    monkeypatch.setattr(cli, "MAX_INPUT_CHARS", len(PATH3))
    assert run(capsys, "subtrees", "--k", "2", path3_file) == (0, "6\n", "")
    with stdin_of(PATH3):
        assert run(capsys, "subtrees", "--k", "2") == (0, "6\n", "")


def test_non_utf8_input_is_a_data_error(tmp_path):
    # Run as a process, so an uncaught exception would show its traceback.
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a b\n\xff c\n")
    src = str(Path(sc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "subtreecount.cli", "subtrees", "--k", "2", str(bad)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "data, offset",
    [
        (b"a b\n" + b"b c\n" * 99_443 + b"c \xffd\n", 397_778),  # in the seventh 64 KiB chunk
        (b"a b\nb c\xe2", 7),  # a sequence cut short by the end of input
        (b"\xef\xbb\xbfa b\nb c\xe2(", 10),  # after a byte-order mark
    ],
    ids=["late", "cut-short", "bom"],
)
def test_non_utf8_errors_give_the_byte_offset_in_the_input(capsys, tmp_path, data, offset):
    (tmp_path / "bad.txt").write_bytes(data)
    code, out, err = run(capsys, "subtrees", "--k", "2", str(tmp_path / "bad.txt"))
    with stdin_of(data):
        assert run(capsys, "subtrees", "--k", "2") == (code, out, err)
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert f"byte {data[offset]:#04x} at offset {offset}:" in err


#: Inputs whose labels hold NUL, DEL or another control character: a
#: binary file or a device read by mistake must not count as a tree.
UNPRINTABLE_INPUTS = ["\x00", "a\x01 b", "\x7f", "\x00" * 100]


@pytest.mark.parametrize("text", UNPRINTABLE_INPUTS, ids=["nul", "soh", "del", "100-nuls"])
@pytest.mark.parametrize("door", ["parse_edge_list", "Tree", "file", "stdin"])
def test_unprintable_labels_are_parse_errors(capsys, tmp_path, door, text):
    labels = text.split()
    if door == "parse_edge_list":
        with pytest.raises(sc.ParseError):
            parse_edge_list(text)
        return
    if door == "Tree":
        with pytest.raises(sc.ParseError):
            sc.Tree(labels, [labels] if len(labels) == 2 else [])
        return
    if door == "file":
        (tmp_path / "labels.txt").write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "subtrees", "--k", "2", str(tmp_path / "labels.txt"))
    else:
        with stdin_of(text):
            code, out, err = run(capsys, "subtrees", "--k", "2")
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


def test_a_byte_order_mark_is_not_label_text(capsys, tmp_path):
    # A BOM is unprintable, so it would make the first label a parse error.
    (tmp_path / "bom.txt").write_text("\ufeff" + PATH3, encoding="utf-8")
    assert run(capsys, "subtrees", "--k", "2", "--contains", "a", str(tmp_path / "bom.txt")) == (
        0, "3\n", ""
    )
    with stdin_of("\ufeff" + PATH3):
        assert run(capsys, "subtrees", "--k", "2", "--contains", "a") == (0, "3\n", "")


#: Edge-list texts built from a few labels, whole edges, and characters
#: that str.split or str.splitlines treats specially, plus '#' and NUL.
edge_list_bytes = st.lists(
    st.sampled_from(
        ["a", "b", "c", "dd", "a b\n", "b c\n", " ", "\t", "\r", "\x0b", "\x1c", "#", "\x00", "\n"]
    ),
    max_size=40,
).map(lambda pieces: "".join(pieces).encode("utf-8"))

ADVERSARIAL_COMMANDS = (
    ["subtrees", "--k", "2"],
    ["bc", "--k", "2", "--contains", "a"],
    ["oracle", "--k", "2"],
    ["subtrees", "--k", "3", "--exact-degree"],
    ["bc", "--k", "2", "--contains", "zz,a"],
    ["subtrees", "--k", "2", "--contains", "a,b"],
)


@settings(deadline=None)  # max_examples: the profile's (100; 500 with --hypothesis-profile=ci)
@given(edge_list_bytes)
@example(b"a b\na b\n")  # a duplicate edge
@example(b"a a\n")  # a self-loop
@example(b"a b\nb c\nc a\n")  # a cycle
@example(b"a b\nc dd\n")  # disconnected
@example(b"a " + b"b" * 99_998 + b"\n")  # a 100,000-character line
@example(b"a\nb c\n")  # a lone label beside pairs
@example(b"a b\n\xff c\n")  # not UTF-8
@example(b"a b\nb c\n")  # a path
@example(b"a b\rb c\n")  # a lone carriage return, not a line end
@example(b"a b\nb \xff\n")  # a path whose last label is not UTF-8
@example(b"a b\nb c\xe2")  # a UTF-8 sequence cut short by the end of input
def test_adversarial_edge_lists_exit_cleanly(tmp_path_factory, data):
    tree_file = tmp_path_factory.getbasetemp() / "adversarial.txt"
    tree_file.write_bytes(data)
    try:
        parse_edge_list(data.decode("utf-8"))
        parses = True
    except (UnicodeDecodeError, sc.SubtreeCountError):
        parses = False
    for command in ADVERSARIAL_COMMANDS:
        results = []
        for argv, source in (([*command, str(tree_file)], contextlib.nullcontext()),
                             (command, stdin_of(data))):
            out, err = io.StringIO(), io.StringIO()
            with source, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (command, data)
            assert code != 0 or parses, (command, data)
            assert "Traceback" not in err.getvalue() + out.getvalue()
            results.append((code, out.getvalue()))
        assert results[0] == results[1], (command, data)  # the file, then stdin


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_resource_errors_exit_2_without_traceback(capsys, monkeypatch, path3_file, error):
    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(subtree_enum, "count_all", exhausted)
    code, out, err = run(capsys, "subtrees", "--k", "2", path3_file)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_every_count_calls_the_folds_through_their_module_bindings(
    capsys, monkeypatch, tmp_path
):
    # A tracer that re-binds these module globals must see every count
    # reach them; a function captured at import time would bypass it.
    calls = set()

    def record(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.add(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    record(subtree_enum, "leaf_update_subtree")
    record(bc_enum, "rooted_parity_vectors")
    t = random_tree(9, 5)
    a, b = t.vertices[0], t.vertices[1]
    tree_file = tmp_path / "t.txt"
    tree_file.write_text("".join(f"{u} {v}\n" for u, v in t.edges))
    # BC counts run the plain fold once per colour class.
    fold = {"leaf_update_subtree"}
    bc_fold = fold
    rooted = {"leaf_update_subtree", "rooted_parity_vectors"}
    for run_case, expected in [
        (lambda: sc.count_all(t, 3), fold),
        (lambda: sc.count_containing(t, 3, a), fold),
        (lambda: sc.count_containing_pair(t, 3, a, b), fold),
        (lambda: sc.count_exact_degree(t, 3, (a, b)), fold),
        (lambda: sc.count_bc_all(t, 3), rooted),
        (lambda: sc.count_bc_containing(t, 3, a), rooted),
        (lambda: sc.count_bc_containing_pair(t, 3, a, b), bc_fold),
        (lambda: sc.count_bc_exact_degree(t, 3), rooted),
        (lambda: sc.ratio_sweep(6, 2, 3, 0, "subtree"), fold),
        (lambda: sc.ratio_sweep(6, 2, 3, 0, "bc"), rooted),
        (lambda: main(["bc", "--k", "3", str(tree_file)]), rooted),
    ]:
        calls.clear()
        run_case()
        assert expected <= calls, expected
