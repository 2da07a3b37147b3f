"""One benchmark operation in a fresh process.

    python child.py SIDE_DIR TRACE setup
    python child.py SIDE_DIR TRACE cli ARG...
    python child.py SIDE_DIR TRACE queries RECORDS_FILE

`setup` only imports the CLI, `cli` runs `lensframe ARG...`, and `queries`
answers a record file from queries.py with one line of answers per batch.
Stdout carries only lensframe's output.  Everything else goes to files in
SIDE_DIR: ready.json (when lensframe.cli finished importing, on the
system-wide monotonic clock), latency.bin (queries: ns per call) and, when
TRACE is 1, the spans.
"""

import time

import lensframe.cli

READY = time.monotonic()

# Set-up ends at READY; what follows is the harness's own cost.
import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402


def run_queries(records_file: Path, side: Path) -> int:
    import arith
    import queries
    from lensframe import classify, connectsum, framing
    from lensframe.classify import RelationKind
    from lensframe.connectsum import SumOfLens
    from lensframe.framing import LensSpace

    records = array("i")
    records.frombytes(records_file.read_bytes())
    kinds = [RelationKind(k) for k in arith.KINDS]
    related = classify.related
    invariant = framing.framing_invariant
    normalized = framing.normalized_framing_invariant
    sums_equivalent = connectsum.sums_equivalent
    clock = time.perf_counter_ns
    latency = array("q")
    answers: list[int] = []
    for i in range(0, len(records), queries.RECORD):
        op, kind, p, q, a, b, c, d, e, f = records[i : i + queries.RECORD]
        if op == queries.OP_RELATED:
            t0 = clock()
            answer = related(kinds[kind], p, q, a)
            t1 = clock()
        elif op == queries.OP_FRAMING:
            t0 = clock()
            answer = invariant(LensSpace(p, q)).value
            t1 = clock()
        elif op == queries.OP_NORMALIZED:
            t0 = clock()
            answer = normalized(LensSpace(p, q)).value
            t1 = clock()
        else:
            t0 = clock()
            answer = sums_equivalent(
                SumOfLens((LensSpace(p, q), LensSpace(a, b))),
                SumOfLens((LensSpace(c, d), LensSpace(e, f))),
                kinds[kind],
            )
            t1 = clock()
        latency.append(t1 - t0)
        answers.append(int(answer))
        if len(answers) == queries.BATCH:
            sys.stdout.write(" ".join(map(str, answers)) + "\n")
            sys.stdout.flush()
            answers.clear()
    if answers:
        sys.stdout.write(" ".join(map(str, answers)) + "\n")
    (side / "latency.bin").write_bytes(latency.tobytes())
    return 0


def main() -> int:
    side, trace, mode, args = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    (side / "ready.json").write_text(
        json.dumps({"ready": READY, "backend": lensframe.BACKEND, "package": lensframe.__file__})
    )
    recorder = None
    if trace:
        import tracer

        recorder = tracer.Tracer()
        recorder.install()
    try:
        if mode == "setup":
            return 0
        if mode == "cli":
            return lensframe.cli.main(args)
        return run_queries(Path(args[0]), side)
    finally:
        sys.stdout.flush()
        if recorder is not None:
            recorder.dump(side)


if __name__ == "__main__":
    sys.exit(main())
