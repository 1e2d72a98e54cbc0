"""Batch command-line front end.

Exit codes: 0 success, 1 domain error, 2 parse/usage error.  Diagnostics go
to stderr only.  Ordinals are passed inline in the text grammar; sets and
posets come from files (JSON and the poset text format).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .errors import DomainError, InputFormatError

# Each `_run_*` and `_load_*` imports the modules its command needs, so only
# `poset` loads numpy and only `verify` loads the suites.  Their names are
# therefore a static tuple, kept equal to sorted(verify.SUITES) by a test.
SUITE_NAMES = ("cubesets", "factorizer", "layered", "ordinals", "posets")


@dataclass
class CommandResult:
    exit_code: int
    stdout: str = ""
    stderr: str = ""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _ascii_int(text: str) -> int:
    """argparse's ``int``, refusing non-ASCII digits with the same message."""
    try:
        if text.isascii():
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ordcopies", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ord_cmd = commands.add_parser("ord", help="ordinal arithmetic")
    ord_sub = ord_cmd.add_subparsers(dest="op", required=True, parser_class=_Parser)
    for op in ("add", "mul", "pow", "cmp"):
        sub = ord_sub.add_parser(op)
        sub.add_argument("a")
        sub.add_argument("b")
    ord_sub.add_parser("classify").add_argument("a")

    set_cmd = commands.add_parser("set", help="cube-set queries")
    set_sub = set_cmd.add_subparsers(dest="op", required=True, parser_class=_Parser)
    member = set_sub.add_parser("member")
    member.add_argument("--file", required=True)
    member.add_argument("point", help="JSON array, e.g. [3,5]")
    set_sub.add_parser("type").add_argument("--file", required=True)
    set_sub.add_parser("ideal").add_argument("--file", required=True)
    select = set_sub.add_parser("select")
    select.add_argument("--file", required=True)
    select.add_argument("xi")
    copy = set_sub.add_parser("copy")
    copy.add_argument("--file", required=True)
    copy.add_argument("alpha")

    layer_cmd = commands.add_parser("layer", help="layered-set queries")
    layer_sub = layer_cmd.add_subparsers(dest="op", required=True, parser_class=_Parser)
    sset = layer_sub.add_parser("sset")
    sset.add_argument("--file", required=True)
    sset.add_argument("m", type=_ascii_int)
    layer_sub.add_parser("supp").add_argument("--file", required=True)
    layer_sub.add_parser("ideal").add_argument("--file", required=True)
    subset = layer_sub.add_parser("subset")
    subset.add_argument("--file", required=True)
    subset.add_argument("--other", required=True)
    fusion = layer_sub.add_parser("fusion")
    fusion.add_argument("--file", action="append", required=True)
    fusion.add_argument("--s", required=True, dest="index")
    layer_sub.add_parser("type").add_argument("--file", required=True)

    poset_cmd = commands.add_parser("poset", help="finite pre-order operations")
    poset_sub = poset_cmd.add_subparsers(dest="op", required=True, parser_class=_Parser)
    for op in ("sm", "sq", "sep"):
        poset_sub.add_parser(op).add_argument("--file", required=True)
    for op in ("product", "iso"):
        sub = poset_sub.add_parser(op)
        sub.add_argument("--file", required=True)
        sub.add_argument("--other", required=True)

    fact = commands.add_parser("factorize", help="symbolic factorization of the copy quotient")
    fact.add_argument("alpha")
    fact.add_argument("--iterate", action="store_true")
    fact.add_argument("--format", choices=("text", "json", "latex"), default="text")

    verify = commands.add_parser("verify", help="run the bundled property suites")
    verify.add_argument("--suite", choices=SUITE_NAMES, action="append")

    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputFormatError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def _parse_json(text: str, where: str):
    # ValueError covers JSONDecodeError and an integer past the int-string limit.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def _load_json(path: str):
    return _parse_json(_read(path), path)


def _load_cube(path: str):
    from .cubesets import cube_from_json

    return cube_from_json(_load_json(path))


def _load_layered(path: str):
    from .layered import layered_from_json

    return layered_from_json(_load_json(path))


def _load_index_set(path: str):
    from .cubesets import cube_from_json
    from .layered import FinCof

    obj = _load_json(path)
    if isinstance(obj, dict) and obj.get("kind") in ("finite", "cofinite"):
        return FinCof.from_json(obj)
    return cube_from_json(obj)


def _load_poset(path: str):
    from .posets import poset_from_text

    return poset_from_text(_read(path))


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _run_ord(args) -> str:
    from .ordinals import (
        EQ,
        GT,
        LT,
        is_indecomposable,
        ord_add,
        ord_cmp,
        ord_mul,
        ord_pow,
        parse_ordinal,
        split_exponent,
    )

    if args.op == "classify":
        a = parse_ordinal(args.a)
        if a.is_zero():
            kind = "zero"
        elif a.is_limit():
            kind = "limit"
        else:
            kind = "successor"
        lines = [f"kind: {kind}"]
        if a.is_zero():
            lines.append("indecomposable: false")
        else:
            lines.append(f"indecomposable: {_bool_text(is_indecomposable(a))}")
            gamma, r = split_exponent(a)
            lines.append(f"gamma: {gamma}")
            lines.append(f"r: {r}")
        return "\n".join(lines) + "\n"
    a = parse_ordinal(args.a)
    b = parse_ordinal(args.b)
    if args.op == "cmp":
        return {LT: "LT", EQ: "EQ", GT: "GT"}[ord_cmp(a, b)] + "\n"
    result = {"add": ord_add, "mul": ord_mul, "pow": ord_pow}[args.op](a, b)
    return f"{result}\n"


def _run_set(args) -> str:
    from .cubesets import cs_fubini_positive, cs_is_copy, cs_member, cs_order_type, cs_select
    from .ordinals import _json_text, parse_ordinal

    a = _load_cube(args.file)
    if args.op == "member":
        point = _parse_json(args.point, "point")
        if not isinstance(point, list):
            raise InputFormatError("point must be a JSON array")
        return _bool_text(cs_member(a, point)) + "\n"
    if args.op == "type":
        return f"{cs_order_type(a)}\n"
    if args.op == "ideal":
        return _bool_text(not cs_fubini_positive(a)) + "\n"
    if args.op == "select":
        xi = parse_ordinal(args.xi)
        return _json_text(list(cs_select(a, xi))) + "\n"
    if args.op == "copy":
        return _bool_text(cs_is_copy(a, parse_ordinal(args.alpha))) + "\n"
    raise AssertionError(args.op)


def _run_layer(args) -> str:
    from .cubesets import cube_to_json
    from .layered import (
        FinCof,
        layered_to_json,
        ls_fusion,
        ls_in_ideal,
        ls_order_type,
        ls_s_set,
        ls_subset_ideal,
        ls_supp,
    )

    if args.op == "fusion":
        sets = [_load_layered(path) for path in args.file]
        index = _load_index_set(args.index)
        return json.dumps(layered_to_json(ls_fusion(sets, index))) + "\n"
    a = _load_layered(args.file)
    if args.op in ("sset", "supp"):
        result = ls_s_set(a, args.m) if args.op == "sset" else ls_supp(a)
        if isinstance(result, FinCof):
            return json.dumps(result.to_json()) + "\n"
        return json.dumps(cube_to_json(result)) + "\n"
    if args.op == "ideal":
        return _bool_text(ls_in_ideal(a)) + "\n"
    if args.op == "subset":
        return _bool_text(ls_subset_ideal(a, _load_layered(args.other))) + "\n"
    if args.op == "type":
        return f"{ls_order_type(a)}\n"
    raise AssertionError(args.op)


def _run_poset(args) -> str:
    from .posets import (
        is_separative,
        poset_iso,
        poset_product,
        poset_to_text,
        sep_mod,
        sep_quot,
    )

    p = _load_poset(args.file)
    if args.op == "sm":
        return poset_to_text(sep_mod(p))
    if args.op == "sq":
        return poset_to_text(sep_quot(p))
    if args.op == "sep":
        return _bool_text(is_separative(p)) + "\n"
    q = _load_poset(args.other)
    if args.op == "product":
        return poset_to_text(poset_product(p, q))
    if args.op == "iso":
        mapping = poset_iso(p, q)
        if mapping is None:
            return "none\n"
        return " ".join(map(str, mapping)) + "\n"
    raise AssertionError(args.op)


def _run_factorize(args) -> str:
    from .forcing import factorize, iteration_form, render_expr
    from .ordinals import parse_ordinal

    alpha = parse_ordinal(args.alpha)
    expr = iteration_form(alpha) if args.iterate else factorize(alpha)
    return render_expr(expr, args.format) + "\n"


def _run_verify(args) -> CommandResult:
    from .verify import run_suites

    ok, lines = run_suites(args.suite)
    body = "\n".join(lines) + "\n"
    if ok:
        return CommandResult(0, body + "all checks passed\n")
    return CommandResult(1, body, "verification failed\n")


def run(argv) -> CommandResult:
    """Parse and dispatch; never raises for user-level errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return CommandResult(2, "", f"usage error: {exc}\n")
    except SystemExit as exc:  # argparse --help prints and exits
        return CommandResult(int(exc.code or 0))
    try:
        if args.command == "ord":
            return CommandResult(0, _run_ord(args))
        if args.command == "set":
            return CommandResult(0, _run_set(args))
        if args.command == "layer":
            return CommandResult(0, _run_layer(args))
        if args.command == "poset":
            return CommandResult(0, _run_poset(args))
        if args.command == "factorize":
            return CommandResult(0, _run_factorize(args))
        if args.command == "verify":
            return _run_verify(args)
        raise AssertionError(args.command)
    except InputFormatError as exc:
        return CommandResult(2, "", f"error: {exc}\n")
    except DomainError as exc:
        return CommandResult(1, "", f"error: {exc}\n")


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
