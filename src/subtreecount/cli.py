"""Command-line front end.

Subcommands:

* ``subtrees``     degree-capped subtree counts of a tree
* ``bc``           degree-capped BC-subtree counts
* ``oracle``       the brute-force reference counts (small trees only)
* ``random-tree``  emit a seeded uniformly random labeled tree
* ``ratio``        density sweep over random trees, written as CSV

Trees are read from a trailing file path, or from standard input when no
path is given, as bytes decoded as strict UTF-8, up to ``MAX_INPUT_CHARS``
characters.  Counting commands print a plain decimal count, counted in
plain ints from unit weights (``tree._as_weighted``) with no generating
function built; with ``--genfun`` they print the generating function
instead (canonical text, or the JSON term list with ``--json``).  Weights
are fixed to the standard initialization here; callers needing custom
weights use the library API.

Exit codes: 0 success, 1 usage error (including flag values the library
rejects as an InvalidArgument), 2 data error (unreadable or bad tree,
closed standard input, unknown vertex, k below the operation's minimum,
input longer than ``MAX_INPUT_CHARS``, oracle input too large, a ratio
sweep over ``tree.MAX_SWEEP_VERTICES`` vertices in all, closed standard
output, a result with a number past ``sys.get_int_max_str_digits()``
digits) or a count that ran out of memory or stack.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import sys
from typing import Sequence

from . import oracle
from .bc_enum import _family
from .bipoly import BiPoly
from .errors import InvalidArgument, ParseError, SubtreeCountError, TooLarge
from .experiments import emit_csv, ratio_sweep
from .subtree_enum import exact_degree
from .tree import (
    LEAST_K, Tree, _as_weighted, least_k, parse_edge_list, random_tree, render_edge_list,
    require_int,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the usage exit code.
    def error(self, message):
        raise InvalidArgument(message)


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subtreecount", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_counting(name: str, help_text: str, family: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(family=family)
        p.add_argument("--k", type=int, required=True, help="maximum degree bound")
        p.add_argument(
            "--contains",
            metavar="L[,L2]",
            help="count only subtrees containing this vertex (or vertex pair)",
        )
        p.add_argument(
            "--genfun",
            action="store_true",
            help="print the generating function instead of the count",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="with --genfun, print the polynomial as JSON term records",
        )
        p.add_argument(
            "--exact-degree",
            action="store_true",
            help="count maximum degree exactly k instead of at most k",
        )
        p.add_argument(
            "tree",
            nargs="?",
            metavar="FILE",
            help="edge-list file (default: read standard input)",
        )
        return p

    add_counting("subtrees", "count subtrees with maximum degree <= k", "subtree")
    add_counting("bc", "count BC-subtrees with maximum degree <= k", "bc")
    p_oracle = add_counting("oracle", "brute-force reference counts (small trees)", "subtree")
    p_oracle.add_argument(  # defaults to the family add_counting set
        "--family", choices=tuple(LEAST_K), help="which family to count (default: subtree)"
    )

    p_rand = sub.add_parser("random-tree", help="emit a seeded random labeled tree")
    p_rand.add_argument("--n", type=int, required=True, help="number of vertices")
    p_rand.add_argument("--seed", type=int, required=True, help="generator seed")

    p_ratio = sub.add_parser("ratio", help="density sweep over random trees")
    p_ratio.add_argument("--n", type=int, required=True, help="vertices per sample")
    p_ratio.add_argument("--samples", type=int, required=True, help="sample count")
    p_ratio.add_argument("--kmax", type=int, required=True, help="largest cap swept")
    p_ratio.add_argument("--seed", type=int, required=True, help="master seed")
    p_ratio.add_argument(
        "--family", choices=tuple(LEAST_K), default="subtree", help="count family"
    )
    p_ratio.add_argument("--out", required=True, help="CSV output path")
    return parser


#: The most characters a tree file or standard input may hold (16 Mi), far
#: above any tree a count can finish: a random 100,000-vertex tree's edge
#: list has about 1.4 million.  Both are read as bytes, at most one 64 KiB
#: chunk past the limit, so an endless pipe or a device such as /dev/zero
#: ends in TooLarge, not in running out of memory.
MAX_INPUT_CHARS = 16 * 2**20


def _load_tree(args) -> Tree:
    if args.tree is not None:
        with open(args.tree, "rb") as stream:
            text = _read_bounded(stream)
    elif sys.stdin is None:  # closed, as under <&-
        raise ParseError("no standard input to read")
    else:
        text = _read_bounded(sys.stdin.buffer)
    if len(text) > MAX_INPUT_CHARS:
        raise TooLarge(f"input longer than {MAX_INPUT_CHARS} characters")
    return parse_edge_list(text)


def _read_bounded(stream) -> str:
    """``stream``'s bytes decoded as strict UTF-8, a leading byte-order mark
    skipped, in 64 KiB chunks until end of input or past ``MAX_INPUT_CHARS``.
    Bytes that are not UTF-8 raise ParseError with their offset in the input."""
    decoder, parts, size, read = codecs.getincrementaldecoder("utf-8-sig")(), [], 0, 0
    while size <= MAX_INPUT_CHARS:
        chunk = stream.read(2**16)
        read += len(chunk)
        try:
            parts.append(decoder.decode(chunk, final=not chunk))
        except UnicodeDecodeError as exc:
            # exc.object is the tail of the input read so far that the decoder held.
            at, byte = read - len(exc.object) + exc.start, exc.object[exc.start]
            raise ParseError(
                f"input is not UTF-8 text: byte {byte:#04x} at offset {at}: {exc.reason}"
            ) from None
        size += len(parts[-1])
        if not chunk:
            break
    return "".join(parts)


def _anchors(args) -> tuple[str, ...]:
    if args.contains is None:
        return ()
    labels = tuple(part.strip() for part in args.contains.split(","))
    if not all(labels) or len(labels) > 2:
        raise InvalidArgument(f"--contains takes one or two labels, got {args.contains!r}")
    return labels


def _count_poly(args, t: Tree) -> BiPoly | int:
    """The generating function with ``--genfun``, else the count: an int
    from the family's counts on the door's int rows, no BiPoly built."""
    anchors = _anchors(args)
    k = args.k
    if args.command == "oracle":
        if not args.exact_degree:
            return oracle.oracle_count(t, k, args.family, anchors)
        require_int(k, least_k(args.family) + 1)
        high = oracle.oracle_count(t, k, args.family, anchors)
        return high - oracle.oracle_count(t, k - 1, args.family, anchors)
    vector_type, modes, exact = _family(args.family)
    if args.genfun:
        return exact(t, k, anchors) if args.exact_degree else modes[len(anchors)](t, k, *anchors)
    if args.exact_degree:
        return exact_degree(modes, t, k, anchors, vector_type, (1, 1))
    wt, cap, anchors = _as_weighted(t, k, vector_type, anchors, 1, 1)
    return modes[len(anchors)](wt, cap, *anchors)


def _run(args) -> str | int | BiPoly | None:
    """What the command prints: the edge-list text, a count, or the generating
    function (``--genfun``); None from ``ratio``, which writes only files."""
    if args.command == "random-tree":
        return render_edge_list(random_tree(args.n, args.seed))
    if args.command == "ratio":
        if args.samples < 1:
            raise InvalidArgument("--samples must be >= 1")
        records = ratio_sweep(args.n, args.samples, args.kmax, args.seed, args.family)
        emit_csv(records, args.out)
        return None
    if args.json and not args.genfun:
        raise InvalidArgument("--json only applies to --genfun output")
    result = _count_poly(args, _load_tree(args))
    return result.eval_counts() if isinstance(result, BiPoly) and not args.genfun else result


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = _run(args)
        if result is None:  # ratio writes only files
            return 0
        if sys.stdout is None:  # closed, as under >&-
            raise OSError("no standard output to write the result to")
        try:  # text as it is; a count or a polynomial on a line of its own
            if not isinstance(result, str):
                result = f"{json.dumps(result.to_json()) if args.json else result}\n"
        except ValueError:  # an int past the interpreter's int-string limit
            raise TooLarge(f"result has a number over {sys.get_int_max_str_digits()} digits")
        sys.stdout.write(result)
        return 0
    except InvalidArgument as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, SubtreeCountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: recursion limit reached while counting", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (the input or --k is too large)", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
