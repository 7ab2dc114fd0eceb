"""Seeded fuzz of the file readers and of the commands that read files.

Every case mutates a valid file with its own ``random.Random(seed)``, so a
failure names the seed that reproduces it. ``aggregate`` and ``report`` run
through ``main`` and must end with exit code 0, 1 or 2, never an exception.
Which lines ``read_cdr_csv`` refuses, and what it reads from the others,
must be what ``reference.read_cdr_row``, a parse written in the tests, says:
a row is accepted only as the reference writer writes it. Rows are taken as
the csv module splits a line: quoting and line endings are CSV's encoding,
not the row's values. Scenarios are only decoded, never run, so no mutant
can start a huge run.
"""

import contextlib
import csv
import io
import json
import random
import signal
from datetime import datetime
from pathlib import Path

import pytest

from acdroute.cli import main
from acdroute.sim import ScenarioConfig
from acdroute.store import read_cdr_csv
from conftest import as_read, spread_cdrs
from reference import CDR_HEADER, read_cdr_row, write_cdr_csv

SCENARIO = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "honest_vs_fas.json"

CASES = 150

# values a field or a JSON leaf is set to: boundary years and times, integer
# and float spellings that a lenient parser reads, and CSV structure
TEXT_VALUES = [
    "9999-12-31 23:59:59", "9999-12-31 23:50:10", "0001-01-01 00:00:00",
    "0999-01-01 00:00:00", "2020-02-30 00:00:00", "0", "00", "010", "+10", " 10 ",
    "1_0", "١٠", "-1", "", "99999999999999999999", "1e300", "nan", "inf",
    "8.670", "12.8", "-0.0", "normal", "no_answer", "other", "1", "x", '"', ",",
    "\n", "\r\n", "x" * 140_000,
]
CHARS = "0123456789 ,\n\r\"-:+_.e٣é\0"
JSON_VALUES = [
    "9999-12-31 23:59:59", "0001-01-01 00:00:00", "0999-01-01 00:00:00", 0, 1, -1,
    10 ** 30, 0.1, 1e308, 1e-300, float("inf"), float("nan"), None, True, False,
    "", "x", [], {}, [0, 0], {"x": 1},
]


class _Hung(BaseException):
    """Raised by ``_deadline``; not an ``Exception``, so ``main`` cannot catch it."""


@contextlib.contextmanager
def _deadline(seconds: float, what: str):
    """Fail, rather than hang the suite, when a case runs too long."""
    def expire(signum, frame):
        raise _Hung(f"{what} ran over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _mutate_text(rng: random.Random, text: str) -> str:
    lines = text.splitlines(keepends=True)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        kind = rng.randrange(6)
        if kind == 0:
            fields = lines[i].rstrip("\n").split(",")
            fields[rng.randrange(len(fields))] = rng.choice(TEXT_VALUES)
            lines[i] = ",".join(fields) + "\n"
        elif kind == 1:
            at = rng.randrange(len(lines[i]) + 1)
            cut = rng.randint(0, 1)
            lines[i] = lines[i][:at] + rng.choice(CHARS) + lines[i][at + cut:]
        elif kind == 2:
            lines.insert(i, lines[i])
        elif kind == 3 and len(lines) > 1:
            del lines[i]
        elif kind == 4:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    return "".join(lines)


def _paths(value, path=()):
    """The key path of ``value`` and of everything nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, path + (key,))


def _mutate_json(rng: random.Random, value) -> str:
    value = json.loads(json.dumps(value))
    for _ in range(rng.randint(1, 3)):
        path = rng.choice([p for p in _paths(value) if p])
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.2:
            del parent[path[-1]]
        else:
            parent[path[-1]] = rng.choice(JSON_VALUES)
    text = json.dumps(value)
    if rng.random() < 0.2:
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(CHARS) + text[at + 1:]
    return text


def _rows(text: str):
    """The first row of a CSV text, and its non-empty rows after it, each by
    the file line it starts on, as the reader numbers them."""
    reader = csv.reader(io.StringIO(text, newline=""))
    first = next(reader, None)
    rows, end = {}, reader.line_num
    for row in reader:
        if row:
            rows[end + 1] = row
        end = reader.line_num
    return first, rows


def _cdr_text(path: Path, records) -> str:
    write_cdr_csv(path, records)
    return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    # two vendors and one closeable interval in 2020; then the same with two
    # more calls in the last hour of year 9999, and calls that end so close
    # to its end that the replay's last tick is past it
    records = spread_cdrs(55, [0] * 12 + [520] * 10) + spread_cdrs(62, [36] * 8 + [0] * 4)
    year_9999 = datetime(9999, 12, 31, 23, 0, 0)
    late = spread_cdrs(55, [30, 0], start=year_9999, window_s=1800, tag="late")
    last = spread_cdrs(55, [0] * 12 + [520] * 10, start=year_9999, window_s=3500, tag="last") \
        + spread_cdrs(62, [36] * 8 + [0] * 4, start=year_9999, window_s=3500, tag="last")
    cdrs = [_cdr_text(root / "2020.csv", records), _cdr_text(root / "late.csv", records + late),
            _cdr_text(root / "last.csv", last)]
    assert main(["aggregate", "--cdr", str(root / "2020.csv"), "--prefs", "9,8",
                 "--out", str(root / "agg")]) == 0
    history = json.loads((root / "agg" / "interval_history.json").read_text(encoding="utf-8"))
    assert history
    return {
        "cdrs": cdrs,
        "history": history,
        "scenario": json.loads(SCENARIO.read_text(encoding="utf-8")),
    }


def _write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    return path


def test_cdr_rows_read_back_as_written(tmp_path, inputs):
    for seed in range(CASES):
        text = _mutate_text(random.Random(seed), inputs["cdrs"][seed % 3])
        path = _write(tmp_path, "cdrs.csv", text)
        try:
            cdrs, errors = read_cdr_csv(path)
        except ValueError:
            continue  # the file as a whole is unreadable (encoding, CSV structure)
        header, rows = _rows(text)
        records = {n: read_cdr_row(row) for n, row in rows.items()}
        refused = [n for n, record in records.items() if record is None]
        assert [n for n, _ in errors] == [1] * (header != CDR_HEADER) + refused, (
            f"seed {seed}: {text!r}")
        accepted = [record for record in records.values() if record is not None]
        assert cdrs == as_read(accepted), f"seed {seed}: {text!r}"


def test_aggregate_ends_with_an_exit_code(tmp_path, inputs, capsys):
    for seed in range(CASES):
        rng = random.Random(seed)
        text = _mutate_text(rng, inputs["cdrs"][seed % 3])
        flags = rng.choice([[], ["--vendors", "55,62"], ["--tick-min", "0.1"],
                            ["--min-calls", "1"]])
        path = _write(tmp_path, "cdrs.csv", text)
        with _deadline(5, f"seed {seed}"):
            code = main(["aggregate", "--cdr", str(path), "--prefs", "9,8", *flags,
                         "--out", str(tmp_path / "out")])
        assert code in (0, 1, 2), f"seed {seed}: {text!r}"
        capsys.readouterr()


def test_report_ends_with_an_exit_code(tmp_path, inputs, capsys):
    for seed in range(CASES):
        text = _mutate_json(random.Random(seed), inputs["history"])
        path = _write(tmp_path, "interval_history.json", text)
        code = main(["report", "--history", str(path), "--out", str(tmp_path / "rep")])
        assert code in (0, 1, 2), f"seed {seed}: {text!r}"
        capsys.readouterr()


def test_scenarios_decode_or_fail_as_bad_input(tmp_path, inputs):
    for seed in range(CASES):
        text = _mutate_json(random.Random(seed), inputs["scenario"])
        path = _write(tmp_path, "scenario.json", text)
        try:
            ScenarioConfig.load(path)
        except (ValueError, OverflowError):
            pass  # what main ends with exit 2
