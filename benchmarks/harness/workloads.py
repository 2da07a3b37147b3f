"""The four workloads: their inputs, made from the seed, and their output checks.

Three run the `lensframe` CLI at fixed sizes; the seed only picks which
parts of the output are recomputed with the harness's own arithmetic.
`queries` sends a seeded stream of point calls through the library.  Every
output is checked while it is drained, without holding it in memory.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import arith
import queries

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


class StreamCheck:
    """Hashes a child's stdout as it arrives and keeps only the lines that match `keep`.

    `mask` rewrites the first line before hashing, for fields that change
    from run to run (verify's elapsed time).
    """

    def __init__(self, keep: re.Pattern | None = None, mask=None):
        self.digest = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self.kept: list[str] = []
        self._keep = keep
        self._mask = mask
        self._tail = b""
        self._first_done = mask is None

    def feed(self, chunk: bytes) -> None:
        self.bytes += len(chunk)
        self.lines += chunk.count(b"\n")
        if not self._first_done:
            self._tail += chunk
            if b"\n" not in self._tail:
                return
            first, _, rest = self._tail.partition(b"\n")
            self.digest.update(self._mask(first) + b"\n")
            self._first_done = True
            self._tail = b""
            chunk = rest
        self.digest.update(chunk)
        if self._keep is not None:
            buf = self._tail + chunk
            cut = buf.rfind(b"\n") + 1
            self.kept.extend(m.group().decode() for m in self._keep.finditer(buf, 0, cut))
            self._tail = buf[cut:]

    def finish(self) -> None:
        if not self._first_done:
            self.digest.update(self._mask(self._tail))
        elif self._keep is not None and self._tail:
            self.kept.extend(m.group().decode() for m in self._keep.finditer(self._tail))


def _mask_elapsed(first_line: bytes) -> bytes:
    return re.sub(rb" checks in [0-9.]+ ms,", b" checks in * ms,", first_line, count=1)


def _alternation(values) -> bytes:
    return b"|".join(str(v).encode() for v in values)


# Samplers: (lines to keep from the output, those lines as the harness computes them).


def _verify_sample(rng: random.Random, max_p: int) -> tuple[bytes, list[str]]:
    chosen = sorted(rng.sample([p for p in range(9, max_p + 1, 2) if not arith.is_prime(p)], 8))
    keep = rb"^note: composite p=(?:%s) collisions: .*$" % _alternation(chosen)
    return keep, [line for p in chosen if (line := arith.collision_line(p))]


def _table_sample(rng: random.Random, p_min: int, p_max: int) -> tuple[bytes, list[str]]:
    odd_p = range(p_min | 1, p_max + 1, 2)
    chosen = sorted(rng.sample(odd_p, min(6, len(odd_p))))
    return rb"^(?:%s),.*$" % _alternation(chosen), [line for p in chosen for line in arith.table_lines(p)]


def _search_sample(rng: random.Random, max_p: int, summands: int) -> tuple[bytes, list[str]]:
    if summands != 2:
        raise ValueError("the search sample covers two-summand sums only")
    primes = [p for p in range(3, max_p + 1, 2) if arith.is_prime(p)]
    chosen = sorted(rng.sample([(a, b) for a in primes for b in primes if a <= b], 3))
    keep = rb"^(?:%s) ~h .*$" % b"|".join(rb"L\(%d,\d+\)#L\(%d,\d+\)" % pair for pair in chosen)
    expected = [line for a, b in chosen for line in arith.search_lines(a, b)]
    # The CLI orders all pairs by their first sum, then by their second.
    return keep, sorted(expected, key=lambda line: [tuple(map(int, m)) for m in re.findall(r"L\((\d+),(\d+)\)", line)])


class CliWorkload:
    """One `lensframe ARGV` run per operation, checked against the recorded reference.

    `sample(rng, *sizes)` picks, from the seed, lines of the output to
    recompute with the harness's own arithmetic; `sizes` are the integer
    arguments in ARGV.
    """

    mode = "cli"
    ops = 1

    def __init__(self, name: str, argv: list[str], why: str, sample, mask=None):
        self.name, self.argv, self.why = name, argv, why
        self._sample, self._mask = sample, mask

    def prepare(self, seed: int, workdir: Path) -> None:
        sizes = [int(a) for a in self.argv if a.isdigit()]
        keep, self.expected = self._sample(random.Random(seed), *sizes)
        self._keep = re.compile(keep, re.M)

    def child_args(self) -> list[str]:
        return list(self.argv)

    def new_check(self) -> StreamCheck:
        return StreamCheck(self._keep, self._mask)

    def judge(self, check: StreamCheck, status: int) -> tuple[int, list[str]]:
        """(failed operations, what was wrong) for one finished run."""
        found = [] if status == 0 else [f"exit status {status}"]
        reference = REFERENCE[self.name]
        for key, got in (("sha256", check.digest.hexdigest()), ("bytes", check.bytes), ("lines", check.lines)):
            if got != reference[key]:
                found.append(f"stdout {key} {got} != reference {reference[key]}")
        if check.kept != self.expected:
            found.append(f"recomputed sample differs ({len(check.kept)} lines kept, {len(self.expected)} expected)")
        return int(bool(found)), found


class QueriesWorkload:
    """Each child answers the whole seeded stream; the parent's oracle answers it beforehand."""

    mode = "queries"
    name = "queries"
    why = (
        "about 150k point calls at random odd p <= 1999: the dataclass-heavy inverse path "
        "behind related(), and the caches filled in random rather than increasing order"
    )

    def __init__(self, count: int = queries.QUERY_COUNT):
        self.count = count

    def prepare(self, seed: int, workdir: Path) -> None:
        records = queries.generate(seed, self.count)
        self.path = workdir / "queries.bin"
        self.path.write_bytes(records.tobytes())
        answers = queries.oracle_answers(records)
        self.ops = len(answers)
        self.expected = [" ".join(map(str, answers[i : i + queries.BATCH])) for i in range(0, len(answers), queries.BATCH)]

    def child_args(self) -> list[str]:
        return [str(self.path)]

    def new_check(self) -> StreamCheck:
        return StreamCheck(re.compile(rb"^.+$", re.M))

    def judge(self, check: StreamCheck, status: int) -> tuple[int, list[str]]:
        """(wrong or missing answers, what was wrong) for one finished child."""
        if status != 0:
            return self.ops, [f"exit status {status}"]
        wrong = 0
        for i in range(max(len(self.expected), len(check.kept))):
            got = check.kept[i].split() if i < len(check.kept) else []
            want = self.expected[i].split() if i < len(self.expected) else []
            if got != want:
                wrong += sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
        return wrong, [f"{wrong} of {self.ops} answers differ from the oracle"] if wrong else []


WORKLOADS = {
    "verify": CliWorkload(
        "verify",
        ["verify", "1199"],
        "exhaustive sweep in increasing p, compute-bound in the lift kernel and collision scan, 2 MB out",
        _verify_sample,
        _mask_elapsed,
    ),
    "table": CliWorkload(
        "table",
        ["table", "3", "1499", "--format", "csv"],
        "13 MB of CSV built from per-row dicts, 270 MB peak: rendering and memory, no lift kernel",
        _table_sample,
    ),
    "search": CliWorkload(
        "search",
        ["search", "41", "2"],
        "the only connected-sum run: orbit keys for about 177k sum pairs, then sorting and rendering",
        _search_sample,
    ),
    "queries": QueriesWorkload(),
}
