"""Command-line front end.

Subcommands:

* ``subtrees``     degree-capped subtree counts of a tree
* ``bc``           degree-capped BC-subtree counts
* ``oracle``       the brute-force reference counts (small trees only)
* ``random-tree``  emit a seeded uniformly random labeled tree
* ``ratio``        density sweep over random trees, written as CSV

Trees are read from a trailing file path, or from standard input when no
path is given, up to ``MAX_INPUT_CHARS`` characters.  Counting commands
print a plain decimal count; with ``--genfun`` they print the generating
function instead (canonical text, or the JSON term list with ``--json``).
Weights are fixed to the standard initialization here; callers needing
custom weights use the library API.

Exit codes: 0 success, 1 usage error (including flag values the library
rejects as an InvalidArgument), 2 data error (unreadable or bad tree,
unknown vertex, k below the operation's minimum, input longer than
``MAX_INPUT_CHARS``, oracle input too large) or a count that ran out of
memory or stack.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import bc_enum, oracle, subtree_enum
from .bipoly import BiPoly
from .errors import InvalidArgument, ParseError, SubtreeCountError, TooLarge
from .experiments import emit_csv, ratio_sweep
from .tree import (
    LEAST_K, Tree, least_k, parse_edge_list, random_tree, render_edge_list, require_int
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the usage exit code.
    def error(self, message):
        raise _UsageError(message)


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subtreecount", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_counting(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
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

    add_counting("subtrees", "count subtrees with maximum degree <= k")
    add_counting("bc", "count BC-subtrees with maximum degree <= k")
    p_oracle = add_counting("oracle", "brute-force reference counts (small trees)")
    p_oracle.add_argument(
        "--family",
        choices=tuple(LEAST_K),
        default="subtree",
        help="which family to count (default: subtree)",
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
#: list has about 1.4 million.  At most one more is read, so an endless pipe
#: or a device such as /dev/zero ends in TooLarge, not in running out of
#: memory.
MAX_INPUT_CHARS = 16 * 2**20


def _load_tree(args) -> Tree:
    try:
        if args.tree is not None:
            with open(args.tree, "r", encoding="utf-8") as handle:
                text = _read_bounded(handle)
        else:
            text = _read_bounded(sys.stdin)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None
    if len(text) > MAX_INPUT_CHARS:
        raise TooLarge(f"input longer than {MAX_INPUT_CHARS} characters")
    return parse_edge_list(text)


def _read_bounded(handle) -> str:
    """At most ``MAX_INPUT_CHARS + 1`` characters of ``handle``, read in
    chunks, so memory follows the input's length and not the limit."""
    parts, size = [], 0
    while size <= MAX_INPUT_CHARS:
        part = handle.read(min(2**16, MAX_INPUT_CHARS + 1 - size))
        if not part:
            break
        parts.append(part)
        size += len(part)
    return "".join(parts)


def _anchors(args) -> tuple[str, ...]:
    if args.contains is None:
        return ()
    labels = tuple(part.strip() for part in args.contains.split(","))
    if not all(labels) or len(labels) > 2:
        raise _UsageError(f"--contains takes one or two labels, got {args.contains!r}")
    return labels


def _count_poly(args, t: Tree) -> BiPoly:
    anchors = _anchors(args)
    k = args.k
    if args.command == "oracle":
        if not args.exact_degree:
            return oracle.oracle_count(t, k, args.family, anchors)
        require_int(k, least_k(args.family) + 1)
        high = oracle.oracle_count(t, k, args.family, anchors)
        return high - oracle.oracle_count(t, k - 1, args.family, anchors)
    if args.command == "subtrees":
        exact = subtree_enum.count_exact_degree
        modes = (
            subtree_enum.count_all,
            subtree_enum.count_containing,
            subtree_enum.count_containing_pair,
        )
    else:
        exact = bc_enum.count_bc_exact_degree
        modes = (
            bc_enum.count_bc_all,
            bc_enum.count_bc_containing,
            bc_enum.count_bc_containing_pair,
        )
    if args.exact_degree:
        return exact(t, k, anchors)
    return modes[len(anchors)](t, k, *anchors)


def _run(args) -> int:
    if args.command == "random-tree":
        sys.stdout.write(render_edge_list(random_tree(args.n, args.seed)))
        return 0
    if args.command == "ratio":
        if args.samples < 1:
            raise _UsageError("--samples must be >= 1")
        records = ratio_sweep(args.n, args.samples, args.kmax, args.seed, args.family)
        emit_csv(records, args.out)
        return 0
    if args.json and not args.genfun:
        raise _UsageError("--json only applies to --genfun output")
    poly = _count_poly(args, _load_tree(args))
    if args.genfun:
        if args.json:
            print(json.dumps(poly.to_json()))
        else:
            print(poly)
    else:
        print(poly.eval_counts())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except (_UsageError, InvalidArgument) as exc:
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
