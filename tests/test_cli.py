import csv
import io
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import chain, islice
from pathlib import Path

import pytest

from lensframe import cli, sweeps
from lensframe.classify import collision_scan
from lensframe.cli import main
from lensframe.connectsum import ExoticPairs, find_exotic_pairs
from lensframe.framing import LensSpace, framing_invariant
from lensframe.modring import is_prime
from lensframe.verify import run_verification
from reference import even_lift

GOLDEN = Path(__file__).parent / "golden"
README = (Path(__file__).parents[1] / "README.md").read_text()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_plain(capsys):
    code, out, _ = run_cli(capsys, "invariant", "5", "2")
    assert code == 0
    assert out.strip() == "3 (mod 5)"


def test_invariant_normalized(capsys):
    code, out, _ = run_cli(capsys, "invariant", "5", "2", "--normalized")
    assert code == 0
    assert out.strip() == "0 (mod 5)"


def test_invariant_json_schema(capsys):
    code, out, _ = run_cli(capsys, "invariant", "5", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"p": 5, "q": 2, "q_inv": 3, "value": 3, "normalized": False}


def test_invariant_reduces_q(capsys):
    code, out, _ = run_cli(capsys, "invariant", "5", "-1")
    assert code == 0
    assert out.strip() == "1 (mod 5)"


def test_invariant_even_p_fails(capsys):
    code, _, err = run_cli(capsys, "invariant", "6", "1")
    assert code == 1
    assert "error" in err


def test_invariant_non_coprime_fails(capsys):
    code, _, err = run_cli(capsys, "invariant", "9", "3")
    assert code == 1
    assert "coprime" in err


def test_table_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "5", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,q_inv,odd_rep_q,odd_rep_qinv,F,F_norm"
    assert len(lines) == 5  # header + four units
    assert lines[2] == "5,2,3,7,3,3,0"


def test_table_p3_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "3", "3", "--format", "csv")
    # odd representatives of 2 and of 2^-1 = 2 mod 3 are both 5
    assert out.strip().splitlines()[1:] == ["3,1,1,1,1,0,1", "3,2,2,5,5,1,2"]


def test_table_without_odd_p_is_empty(capsys):
    code, out, _ = run_cli(capsys, "table", "4", "4", "--format", "csv")
    assert code == 0
    assert out.strip() == "p,q,q_inv,odd_rep_q,odd_rep_qinv,F,F_norm"


def test_table_sorted_and_json_matches_csv(capsys):
    code, csv_out, _ = run_cli(capsys, "table", "3", "15", "--format", "csv")
    code2, json_out, _ = run_cli(capsys, "table", "3", "15", "--format", "json")
    assert code == code2 == 0
    rows = json.loads(json_out)
    assert [(r["p"], r["q"]) for r in rows] == sorted((r["p"], r["q"]) for r in rows)
    csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
    assert len(csv_rows) == len(rows)
    for parsed, row in zip(csv_rows, rows):
        assert [int(x) for x in parsed] == [row[k] for k in row]


def test_table_bad_range(capsys):
    code, _, err = run_cli(capsys, "table", "9", "5")
    assert code == 1


@pytest.mark.parametrize("p_min, p_max", [(3, 15), (4, 4), (3, 3)])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_table_matches_golden_output(tmp_path, capsys, p_min, p_max, fmt):
    assert_golden_output(tmp_path, capsys, ["table", str(p_min), str(p_max)], fmt)


# The golden file names of the one-record commands, and their arguments.
RECORD_GOLDEN = {
    "invariant_5_2": ["invariant", "5", "2"],
    "invariant_5_2_normalized": ["invariant", "5", "2", "--normalized"],
    "obstruct_120_0": ["obstruct", "120", "0"],
    "obstruct_8_1_h1_nontrivial": ["obstruct", "8", "1", "--h1-nontrivial"],
}


@pytest.mark.parametrize("name", list(RECORD_GOLDEN))
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_record_matches_golden_output(tmp_path, capsys, name, fmt):
    assert_golden_output(tmp_path, capsys, RECORD_GOLDEN[name], fmt, name=name)


def assert_golden_output(tmp_path, capsys, args, fmt, mask=bytes, name=None, code=0):
    # stdout and an --out file both equal the golden copy (name, by default the
    # args joined by "_"), byte for byte once mask has rewritten what may differ
    # between runs in both; both runs exit with code.
    golden = mask((GOLDEN / f"{name or '_'.join(args)}.{fmt}").read_bytes())
    argv = args + ["--format", fmt]
    exit_code, out, _ = run_cli(capsys, *argv)
    assert exit_code == code
    assert mask(out.encode()) == golden
    target = tmp_path / f"out.{fmt}"
    assert main(argv + ["--out", str(target)]) == code
    assert mask(target.read_bytes()) == golden


def test_table_bad_range_writes_no_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert main(["table", "9", "5", "--out", str(target)]) == 1
    assert not target.exists()


@pytest.mark.parametrize("max_p, summands", [(13, 2), (7, 1), (3, 1)])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_search_matches_golden_output(tmp_path, capsys, max_p, summands, fmt):
    assert_golden_output(tmp_path, capsys, ["search", str(max_p), str(summands)], fmt)


# elapsed_ms is the only field of verify's output that changes from run to run.
_ELAPSED = {
    "plain": (rb" checks in [0-9.]+ ms,", b" checks in * ms,"),
    "csv": (rb",[0-9.]+\n$", b",*\n"),
    "json": (rb'"elapsed_ms": [0-9.e+-]+,', b'"elapsed_ms": *,'),
}


def _mask_elapsed(fmt):
    pattern, replacement = _ELAPSED[fmt]

    def mask(text):
        masked, count = re.subn(pattern, replacement, text, count=1)
        assert count == 1
        return masked

    return mask


@pytest.mark.parametrize("max_p", [15, 45])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_verify_matches_golden_output(tmp_path, capsys, max_p, fmt):
    assert_golden_output(tmp_path, capsys, ["verify", str(max_p)], fmt, _mask_elapsed(fmt))


@pytest.fixture
def even_lifts(monkeypatch):
    # Sweeps with even lifts in place of odd ones; the tables they fill are
    # dropped before and after, so no other test sees them.
    monkeypatch.setattr(sweeps, "odd_lift", even_lift)
    sweeps.invariant_table.cache_clear()
    yield
    sweeps.invariant_table.cache_clear()


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_failed_verify_matches_golden_output(tmp_path, capsys, even_lifts, fmt):
    # With even lifts at p = 3 the lift sweep and antisymmetry both fail.
    assert_golden_output(
        tmp_path, capsys, ["verify", "3"], fmt, _mask_elapsed(fmt), name="verify_3_fail", code=2
    )


@pytest.mark.parametrize("argv", [["search", "2"], ["search", "7", "3"]])
def test_search_bad_input_writes_no_file(tmp_path, capsys, argv):
    target = tmp_path / "search.txt"
    assert main(argv + ["--out", str(target)]) == 1
    assert not target.exists()


@pytest.mark.parametrize("max_p", ["2", "1"])
def test_verify_bad_input_writes_no_file(tmp_path, capsys, max_p):
    target = tmp_path / "verify.txt"
    assert main(["verify", max_p, "--out", str(target)]) == 1
    assert not target.exists()
    assert os.listdir(tmp_path) == []


def test_empty_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # An empty name once resolved to the current directory, so a temporary
    # file came and went in its parent before the write failed.
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    code, out, err = run_cli(capsys, "invariant", "5", "2", "--out", "")
    assert (code, out) == (1, "")
    assert err.startswith("usage: lensframe invariant")
    assert "stdout" not in err
    assert os.listdir(tmp_path) == ["sub"]
    assert os.listdir(tmp_path / "sub") == []


def test_verify_rejects_max_p_past_its_arrays(tmp_path, capsys, monkeypatch):
    too_big = str(2**32)  # the collision arrays hold q as a 32-bit unsigned int

    def no_sweep(p):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(sweeps, "invariant_table", no_sweep)
    code, out, err = run_cli(capsys, "verify", too_big)
    assert (code, out) == (1, "")
    assert err == f"error: max_p must be < {too_big}, got {too_big}\n"
    target = tmp_path / "verify.txt"
    assert main(["verify", too_big, "--out", str(target)]) == 1
    assert os.listdir(tmp_path) == []


def _child_env():
    # A child interpreter that imports this checkout's lensframe.
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_sigint_exits_1_and_keeps_the_old_file(tmp_path):
    target = tmp_path / "verify.txt"
    target.write_text("old contents\n")
    env = _child_env()
    # The child says when main is about to run, so the signal cannot land during start-up.
    launch = "import sys; from lensframe.cli import main; print(flush=True); sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", launch, "verify", "99999", "--out", str(target)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"\n"
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert b"Traceback" not in err
    assert (out, err) == (b"", b"error: interrupted\n")
    assert target.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["verify.txt"]


class _Interrupted(Exception):
    pass


def test_interrupted_out_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "table.csv"
    target.write_text("old contents\n")
    invariant_table = sweeps.invariant_table

    def fail_at_7(p):
        if p == 7:
            raise _Interrupted
        return invariant_table(p)

    monkeypatch.setattr(sweeps, "invariant_table", fail_at_7)
    with pytest.raises(_Interrupted):
        main(["table", "3", "9", "--out", str(target)])
    assert target.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_out_keeps_the_mode_of_the_replaced_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    target.write_text("old contents\n")
    target.chmod(0o640)
    assert main(["table", "3", "9", "--out", str(target)]) == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert target.read_text().startswith("p q q_inv")
    assert os.listdir(tmp_path) == ["table.csv"]


def test_out_does_not_replace_a_file_the_user_cannot_write(tmp_path, capsys, monkeypatch):
    # Replacing needs only a writable directory, so a FILE the user cannot
    # write is opened in place, where open() refuses it as the shell would.
    # os.access is patched so that the file reads as unwritable for any uid.
    target = tmp_path / "t.txt"
    target.write_text("old contents\n")
    inode = target.stat().st_ino
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    assert main(["invariant", "5", "2", "--out", str(target)]) == 0
    assert target.stat().st_ino == inode
    assert target.read_text() == "3 (mod 5)\n"
    assert os.listdir(tmp_path) == ["t.txt"]


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    real = tmp_path / "real.txt"
    real.write_text("old contents\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    assert main(["search", "7", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert real.read_bytes() == (GOLDEN / "search_7_1.plain").read_bytes()


def test_out_to_a_fifo_writes_in_place(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["search", "7", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received == [(GOLDEN / "search_7_1.plain").read_bytes()]


def test_table_header_is_written_before_the_last_p_is_computed(monkeypatch):
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    written_before = {}
    invariant_table = sweeps.invariant_table

    def recorder(p):
        written_before[p] = stdout.getvalue()
        return invariant_table(p)

    monkeypatch.setattr(sweeps, "invariant_table", recorder)
    assert main(["table", "3", "9", "--format", "csv"]) == 0
    assert list(written_before) == [3, 5, 7, 9]
    assert written_before[3] == "p,q,q_inv,odd_rep_q,odd_rep_qinv,F,F_norm\n"
    assert written_before[9].endswith("\n7,6,6,13,13,1,4\n")  # all of p = 7 is out already


def test_readme_cli_comments_match_the_first_output_line(capsys):
    # Every "# ->" comment in README's CLI block is the first line its command prints.
    block = README.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.split("# ->") for line in block.splitlines() if "# ->" in line]
    assert len(examples) >= 5
    for command, expected in examples:
        argv = command.split()
        assert argv[0] == "lensframe"
        code, out, _ = run_cli(capsys, *argv[1:])
        assert (code, out.splitlines()[0]) == (0, expected.strip()), command


def _readme_formats():
    # README's per-subcommand bullets, by name, each joined onto one line.
    bullets = README.split("`--out FILE`.", 1)[1].split("\n## ", 1)[0].split("\n- `")[1:]
    return {bullet.split("`", 1)[0]: " ".join(bullet.split()) for bullet in bullets}


def test_readme_table_header_matches_the_cli(capsys):
    # The CSV header, and the fields of every JSON row, in order.
    table = _readme_formats()["table"]
    header = re.search(r"CSV header is exactly `([^`]+)`", table).group(1)
    code, out, _ = run_cli(capsys, "table", "3", "5", "--format", "csv")
    assert (code, out.splitlines()[0]) == (0, header)
    assert "JSON rows carry the same field names" in table
    code, out, _ = run_cli(capsys, "table", "3", "5", "--format", "json")
    rows = json.loads(out)
    assert code == 0 and rows and all(list(row) == header.split(",") for row in rows)


@pytest.mark.parametrize("argv", [["invariant", "5", "2"], ["verify", "15"], ["search", "7", "1"], ["obstruct", "120", "1"]])
def test_readme_json_fields_match_the_cli(capsys, argv):
    # Each JSON record (a list's items, or the one object) has the fields README lists, in order.
    fields = re.findall(r'"(\w+)"', re.search(r"JSON[^`{]*`(\{.*?\})`", _readme_formats()[argv[0]]).group(1))
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    records = payload if isinstance(payload, list) else [payload]
    assert code == 0 and records
    assert all(list(record) == fields for record in records)


def test_readme_exit_codes_match_the_cli(even_lifts, monkeypatch):
    # README's list is every exit code there is: each one, and each cause it names, is run here.
    codes = re.search(r"Exit codes: (.*?), and nothing else\.", " ".join(README.split())).group(1)
    observed = {
        "success": {main(["invariant", "5", "2"])},
        "usage or input error or an interrupt": {main(["invariant"]), main(["verify", "2"])},
        "verification failure": {main(["verify", "3"])},  # even lifts fail at p = 3
    }

    def ctrl_c(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_dispatch", ctrl_c)
    observed["usage or input error or an interrupt"].add(main(["invariant", "5", "2"]))
    assert {text.strip(): {int(c)} for c, text in re.findall(r"`(\d+)` ([a-z ]+)", codes)} == observed


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "5")
    assert code == 0
    assert "0 failure" in out
    assert out.strip().endswith("PASS")


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "199", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks_run"] > 0
    assert payload["failures"] == []
    assert payload["elapsed_ms"] >= 0
    # order 9 collides; reported without failing the run
    assert payload["composite_collisions"]["9"] == [[1, 4], [1, 7], [2, 8], [5, 8]]


def test_verify_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "2")
    assert code == 1


def test_verification_report_counts():
    report = run_verification(5)
    assert report.checks_run > 0
    assert report.failures == []
    assert report.collisions == {}


def test_verify_layer_imports_no_cli():
    # The engine is a library layer: importing it loads neither the CLI nor argparse.
    env = _child_env()
    code = "import sys, lensframe.verify; print('lensframe.cli' in sys.modules, 'argparse' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.split() == ["False", "False"]


def test_cli_start_up_loads_no_introspection_modules():
    # Every run pays for what importing the CLI loads; dataclasses alone drags in inspect, ast,
    # dis and tokenize, which nothing in the package uses.
    code = "import sys; before = set(sys.modules); import lensframe.cli; print(*set(sys.modules) - before)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), check=True)
    added = set(result.stdout.split())
    assert "lensframe.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})


class _NullSink:
    def write(self, text):
        pass


def test_verification_memory_stays_small():
    # The 16,228 collision pairs below 400 are kept flat, 8 bytes a pair, and
    # each report is written one composite p at a time: run and render together
    # stay under 1 MB (tuples in lists and a one-string report peaked at 5.1 MB).
    tracemalloc.start()
    try:
        report = run_verification(399)
        for fmt in ("plain", "json"):
            cli._write(cli._render_verify(report, fmt), _NullSink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000
    assert report.failures == []
    composites = [p for p in range(9, 400, 2) if not is_prime(p)]
    assert list(report.collisions) == [p for p in composites if collision_scan(p)]
    for p, flat in report.collisions.items():
        assert flat.typecode == "I" and flat.itemsize == 4
        assert flat.tolist() == list(chain.from_iterable(collision_scan(p)))


def test_verification_records_a_lift_failure(monkeypatch):
    sweeps.invariant_table(3)  # cached with the true odd lifts before the patch

    # With even lifts the value depends on the shift: 3*3//4 = 2 but 3*9//4 = 0 (mod 3).
    monkeypatch.setattr(sweeps, "odd_lift", even_lift)
    report = run_verification(3)
    assert report.failures == [("representative-independence", 3, 1, None, 0, 0)]


def test_search_plain(capsys):
    code, out, _ = run_cli(capsys, "search", "7")
    assert code == 0
    assert "L(7,1) ~h L(7,2) (not homeo)" in out


def test_search_two_summands(capsys):
    code, out, _ = run_cli(capsys, "search", "5", "2")
    assert code == 0
    assert "L(5,1)#L(5,1) ~h L(5,1)#L(5,4) (not homeo)" in out


def test_search_empty(capsys):
    code, out, _ = run_cli(capsys, "search", "3")
    assert code == 0
    assert out == ""


def test_search_json_lists_summands(capsys):
    code, out, _ = run_cli(capsys, "search", "5", "2", "--format", "json")
    assert code == 0
    pairs = json.loads(out)
    assert {"first": [[5, 1], [5, 1]], "second": [[5, 1], [5, 4]]} in pairs


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_search_blocks_join_to_the_golden_output(tmp_path, capsys, monkeypatch, fmt):
    # search 13 2 has 696 pairs: blocks of 100 put seams inside every format.
    monkeypatch.setattr(cli, "SEARCH_BLOCK", 100)
    assert_golden_output(tmp_path, capsys, ["search", "13", "2"], fmt)


class _LineCounter:
    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")


def test_search_memory_holds_the_sums_not_the_pairs():
    # search 41 2 has 176,957 pairs of 7,744 sums.  A list of every pair,
    # rendered from a dict keyed by all of them, peaked at 17.3 MB; the view
    # generates them one block at a time from the sums and peaks at 4.1 MB.
    # The bound leaves about 45% slack over the view's peak.
    sink = _LineCounter()
    tracemalloc.start()
    try:
        cli._write(cli._render_search(find_exotic_pairs(41, 2), "plain"), sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == 176_957
    assert peak <= 6_000_000


def test_interrupted_search_out_keeps_the_old_file(tmp_path, monkeypatch):
    # The pairs are generated while FILE is written, so a failure in the pair
    # iteration after the first block was written must still leave FILE as it
    # was and remove the temporary file.
    target = tmp_path / "search.txt"
    target.write_text("old contents\n")
    monkeypatch.setattr(cli, "SEARCH_BLOCK", 100)
    iterate = ExoticPairs.__iter__
    files_at_failure = []

    def fail_after_first_block(self):
        yield from islice(iterate(self), cli.SEARCH_BLOCK)
        files_at_failure.extend(sorted(os.listdir(tmp_path)))
        raise _Interrupted

    monkeypatch.setattr(ExoticPairs, "__iter__", fail_after_first_block)
    with pytest.raises(_Interrupted):
        main(["search", "13", "2", "--out", str(target)])
    assert re.fullmatch(r"\.search\.txt\.\d+\.tmp", files_at_failure[0])
    assert files_at_failure[1:] == ["search.txt"]
    assert target.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["search.txt"]


def test_obstruct_order_120(capsys):
    code, out, _ = run_cli(capsys, "obstruct", "120", "1")
    assert code == 0
    assert out.strip() == "obstructed (mod 120)"


def test_obstruct_left_invariant_class(capsys):
    code, out, _ = run_cli(capsys, "obstruct", "120", "0")
    assert code == 0
    assert out.startswith("unobstructed")


def test_obstruct_inconsistent_input(capsys):
    code, _, err = run_cli(capsys, "obstruct", "7", "1", "--h1-nontrivial")
    assert code == 1
    assert "inconsistent" in err


def test_obstruct_halved_modulus(capsys):
    code, out, _ = run_cli(capsys, "obstruct", "8", "1", "--h1-nontrivial")
    assert code == 0
    assert out.strip() == "obstructed (mod 4)"


def test_obstruct_json(capsys):
    code, out, _ = run_cli(capsys, "obstruct", "120", "1", "--format", "json")
    assert json.loads(out) == {
        "group_order": 120,
        "h1_z2_trivial": True,
        "pullback_class": 1,
        "modulus": 120,
        "obstructed": True,
    }


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = main(["table", "3", "9", "--format", "csv", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert text.startswith("p,q,")
    assert text.endswith("\n")


def test_out_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code = main(["table", "3", "9", "--out", str(target)])
    assert code == 1
    assert f"error: cannot write to {target}: " in capsys.readouterr().err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_named_in_the_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["table", "3", "999"])
    assert code == 1
    assert capsys.readouterr().err == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["invariant", "5", "2", "--format", "yaml"]) == 1
    assert "invalid choice: 'yaml' (choose from 'plain', 'csv', 'json')" in capsys.readouterr().err
    assert main(["search", "7", "3"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


def test_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "3", "49", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    rebuilt = [",".join(rows[0])]
    for row in rows[1:]:
        p, q = int(row[0]), int(row[1])
        row[5] = str(framing_invariant(LensSpace(p, q)).value)
        rebuilt.append(",".join(row))
    assert "\n".join(rebuilt) == out.strip()
