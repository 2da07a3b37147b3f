"""Command-line front end.

Subcommands: invariant, table, verify, search, obstruct.  Every subcommand
accepts --format {plain,csv,json} and --out FILE.  Exit codes: 0 success,
1 usage or input error or an interrupt (Ctrl-C), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from array import array
from collections.abc import Iterable, Iterator
from itertools import chain, islice

from . import sweeps
from .connectsum import SumOfLens, find_exotic_pairs
from .framing import (
    FramingClass,
    LensSpace,
    QuotientData,
    framing_invariant,
    framing_modulus,
    normalized_framing_invariant,
    odd_lift,
    universally_tight_obstructed,
)
from .modring import inverse, require_odd
from .verify import VerificationReport, run_verification

TABLE_COLUMNS = ("p", "q", "q_inv", "odd_rep_q", "odd_rep_qinv", "F", "F_norm")

# search writes its pairs in chunks of this many lines.
SEARCH_BLOCK = 4096


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1; argparse's default of 2 is reserved here
    # for verification failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def invariant_payload(p: int, q: int, normalized: bool) -> dict:
    """Evaluate one invariant; q is reduced mod p before validation."""
    require_odd(p)
    q_red = q % p
    if math.gcd(q_red, p) != 1:
        raise ValueError(f"q = {q} is not coprime to p = {p}")
    space = LensSpace(p, q_red)
    cls = normalized_framing_invariant(space) if normalized else framing_invariant(space)
    q_inv = inverse(q_red, p)
    return {"p": p, "q": q_red, "q_inv": q_inv, "value": cls.value, "normalized": normalized}


def table_rows(p_min: int, p_max: int) -> Iterator[list[tuple[int, ...]]]:
    """The table's rows in TABLE_COLUMNS order, one block per odd p in range, sorted by (p, q).

    The range is checked at once; each block is computed only when it is asked for.
    """
    if not 3 <= p_min <= p_max:
        raise ValueError(f"need 3 <= p_min <= p_max, got {p_min}..{p_max}")
    return map(_table_block, range(p_min | 1, p_max + 1, 2))


def _table_block(p: int) -> list[tuple[int, ...]]:
    table = sweeps.invariant_table(p)
    group, inverses = sweeps.unit_group(p)
    half = (p + 1) // 2
    rows = []
    for q in group:
        q_inv = inverses[q]
        value = table[q]
        rows.append((p, q, q_inv, odd_lift(q, p), odd_lift(q_inv, p), value, (value - half) % p))
    return rows


def _render_record(payload: dict, fmt: str, plain: str) -> tuple[str]:
    """One record as one chunk: payload as JSON, as a CSV header of its keys over its values, or plain."""
    if fmt == "json":
        return (json.dumps(payload),)
    if fmt == "csv":
        # Every value is an int, a bool (written true/false) or a %.1f decimal: none needs quoting.
        return (",".join(payload) + "\n" + ",".join([str(v).lower() for v in payload.values()]),)
    return (plain,)


def _json_items(items: Iterable[str], brackets: str = "[]") -> Iterator[str]:
    """The JSON array (brackets "[]") or object ("{}") of rendered items, as text chunks."""
    separator = brackets[0]
    for item in items:
        yield separator + item
        separator = ", "
    yield brackets if separator == brackets[0] else brackets[1]


def _render_lines(blocks: Iterable[list[str]], fmt: str, header: str) -> Iterator[str]:
    """One JSON array of the blocks' items, or the header and then each block joined, read lazily."""
    if fmt == "json":
        return _json_items(", ".join(block) for block in blocks)
    return chain((header,), map("".join, blocks))


def _render_table(blocks: Iterable[list[tuple[int, ...]]], fmt: str) -> Iterator[str]:
    """The table as one text chunk per block; joined, they are the text of a whole-table render."""
    separator = "," if fmt == "csv" else " "
    if fmt == "json":
        # json.dumps of the row dicts, one block at a time: every value is an int.
        line = "{" + ", ".join(f'"{c}": %d' for c in TABLE_COLUMNS) + "}"
    else:
        line = separator.join(["%d"] * len(TABLE_COLUMNS)) + "\n"
    rendered = ([line % row for row in block] for block in blocks)
    return _render_lines(rendered, fmt, separator.join(TABLE_COLUMNS) + "\n")


def _render_verify(report: VerificationReport, fmt: str) -> Iterator[str]:
    """The report as text chunks: the summary and failures, then one chunk per composite p."""
    if fmt == "json":
        # json.dumps of the whole report, with its last field written one p at a time.
        head = json.dumps(
            {
                "checks_run": report.checks_run,
                "failures": [
                    {"check": c, "p": p, "q": q, "q2": q2, "expected": e, "actual": a}
                    for c, p, q, q2, e, a in report.failures
                ],
                "elapsed_ms": report.elapsed_ms,
            }
        )
        yield head[:-1] + ', "composite_collisions": '
        pairs = report.collisions.items()
        yield from _json_items((f'"{p}": [' + _pairs_text("[%d, %d]", ", ", f) + "]" for p, f in pairs), "{}")
        yield "}"
        return
    if fmt == "csv":
        summary = {
            "checks_run": report.checks_run,
            "failures": len(report.failures),
            "elapsed_ms": f"{report.elapsed_ms:.1f}",
        }
        yield from _render_record(summary, fmt, "")
        return
    lines = [
        f"{report.checks_run} checks in {report.elapsed_ms:.1f} ms, "
        f"{len(report.failures)} failure(s)"
    ]
    for c, p, q, q2, expected, actual in report.failures:
        lines.append(f"FAIL {c}: p={p} q={q} q2={q2} expected={expected} actual={actual}")
    yield "\n".join(lines)
    for p, flat in report.collisions.items():
        yield f"\nnote: composite p={p} collisions: " + _pairs_text("(%d,%d)", " ", flat)
    yield "\nFAIL" if report.failures else "\nPASS"


def _pairs_text(pair: str, separator: str, flat: array) -> str:
    """The pairs of flat (q, q2, q, q2, ...), each formatted by pair, joined by separator."""
    return separator.join([pair] * (len(flat) // 2)) % tuple(flat)


def _render_search(pairs: Iterable[tuple[SumOfLens, SumOfLens]], fmt: str) -> Iterator[str]:
    """The pairs as text chunks of SEARCH_BLOCK pairs; joined, they are the text of a whole render.

    The pairs are taken SEARCH_BLOCK at a time, so a lazy iterable is generated as it is written.
    """
    if fmt == "json":
        render, line = _sum_json, '{"first": %s, "second": %s}'
    elif fmt == "csv":
        # A sum's text always holds a comma and never a quote, so csv.writer quotes it just so.
        render, line = str, '"%s","%s"\n'
    else:
        render, line = str, "%s ~h %s (not homeo)\n"

    def blocks() -> Iterator[list[str]]:
        # Each distinct sum is rendered once, the first time it appears, keyed
        # by identity: hashing a sum costs more than rendering it.  An id stays
        # the key of one sum only while that sum lives, so pairs must keep every
        # sum alive until the render ends, as find_exotic_pairs' view does.
        text: dict[int, str] = {}
        stream = iter(pairs)
        while block := list(islice(stream, SEARCH_BLOCK)):
            for total in {id(t): t for pair in block for t in pair}.values():
                if id(total) not in text:
                    text[id(total)] = render(total)
            yield [line % (text[id(a)], text[id(b)]) for a, b in block]

    return _render_lines(blocks(), fmt, "first,second\n" if fmt == "csv" else "")


def _sum_json(total: SumOfLens) -> str:
    return json.dumps([[s.p, s.q] for s in total.summands])


def _dispatch(args: argparse.Namespace) -> tuple[Iterable[str], int]:
    """The output as text chunks (lazy for table, verify and search) and the exit code."""
    fmt = args.format
    if args.command == "invariant":
        payload = invariant_payload(args.p, args.q, args.normalized)
        return _render_record(payload, fmt, f"{payload['value']} (mod {payload['p']})"), 0
    if args.command == "table":
        return _render_table(table_rows(args.p_min, args.p_max), fmt), 0
    if args.command == "verify":
        report = run_verification(args.max_p)
        return _render_verify(report, fmt), 2 if report.failures else 0
    if args.command == "search":
        return _render_search(find_exotic_pairs(args.max_p, args.summands), fmt), 0
    # obstruct
    modulus = framing_modulus(args.group_order, not args.h1_nontrivial)
    cls = FramingClass(args.pullback_class % modulus.m, modulus)
    data = QuotientData(args.group_order, not args.h1_nontrivial, cls)
    obstructed = universally_tight_obstructed(data)
    payload = {
        "group_order": args.group_order,
        "h1_z2_trivial": not args.h1_nontrivial,
        "pullback_class": cls.value,
        "modulus": modulus.m,
        "obstructed": obstructed,
    }
    plain = f"{'obstructed' if obstructed else 'unobstructed'} (mod {modulus.m})"
    return _render_record(payload, fmt, plain), 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["plain", "csv", "json"],
        default="plain",
        help="output format (default: plain)",
    )
    common.add_argument("--out", type=_out_file, metavar="FILE", default=None, help="write output to FILE")

    parser = _Parser(
        prog="lensframe",
        description="Framing invariants of odd-order lens spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_inv = sub.add_parser("invariant", parents=[common], help="framing class of L(p, q)")
    p_inv.add_argument("p", type=int, help="odd group order >= 3")
    p_inv.add_argument("q", type=int, help="integer coprime to p")
    p_inv.add_argument(
        "--normalized", action="store_true", help="recentre by -1/2 (subtract 2^-1 mod p)"
    )

    p_table = sub.add_parser("table", parents=[common], help="invariant table over a range of odd p")
    p_table.add_argument("p_min", type=int)
    p_table.add_argument("p_max", type=int)

    p_verify = sub.add_parser("verify", parents=[common], help="exhaustive checks for all odd p <= max_p")
    p_verify.add_argument("max_p", type=int)

    p_search = sub.add_parser(
        "search", parents=[common], help="sums homotopy-matched but not homeomorphic"
    )
    p_search.add_argument("max_p", type=int)
    p_search.add_argument("summands", type=int, nargs="?", default=1, choices=(1, 2))

    p_obs = sub.add_parser(
        "obstruct", parents=[common], help="universally tight contact structure obstruction"
    )
    p_obs.add_argument("group_order", type=int)
    p_obs.add_argument("pullback_class", type=int)
    p_obs.add_argument(
        "--h1-nontrivial",
        action="store_true",
        dest="h1_nontrivial",
        help="the quotient has H_1(M; Z/2) != 0 (modulus halves)",
    )
    return parser


def _out_file(name: str) -> str:
    if not name:
        raise argparse.ArgumentTypeError("expected a file name, got an empty string")
    return name


def _write(output: Iterable[str], stream) -> None:
    """Write the text chunks, then one newline unless they are empty or already end with one."""
    last = ""
    for chunk in output:
        if chunk:
            stream.write(chunk)
            last = chunk
    if last and not last.endswith("\n"):
        stream.write("\n")


def _emit(output: Iterable[str], out_path: str | None) -> None:
    if out_path is None:
        _write(output, sys.stdout)
        return
    replacement = _replacement_for(out_path)
    if replacement is None:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write(output, fh)
        return
    # The file is replaced only once the whole output is written, so a failed
    # or interrupted run leaves its old contents as they were.
    fd, tmp_path, mode = replacement
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            _write(output, fh)
        if mode is not None:
            os.chmod(tmp_path, mode)
        os.replace(tmp_path, out_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _replacement_for(path: str) -> tuple[int, str, int | None] | None:
    """A new temporary file beside path, and the mode of path when it exists.

    None when path exists but is not a regular file (a device, a FIFO, a
    symlink) or is one the user cannot write, or when no temporary file can be
    made beside it: then path is written in place, and any error names path itself.
    """
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        mode = None  # the new file gets the umask's mode, as from open()
    except OSError:
        return None
    else:
        if not stat.S_ISREG(st.st_mode) or not os.access(path, os.W_OK):
            return None
        mode = stat.S_IMODE(st.st_mode)
    directory, name = os.path.split(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return None
    return fd, tmp_path, mode


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(argv)
    except KeyboardInterrupt:
        # An interrupted --out run has already left FILE as it was.
        print("error: interrupted", file=sys.stderr)
        return 1


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        output, code = _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(output, args.out)
    except OSError as exc:
        print(f"error: cannot write to {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
