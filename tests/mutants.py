"""One-place mutants of ``src/acdroute``, each breaking a rule that the tier-1
tests must pin, and the runner that checks they do.

Each entry of ``MUTANTS`` is a ``Mutant(name, file, old, new, rule,
equivalent, first)``: ``old`` is text that occurs exactly once in ``file``, a
path from the repository root, ``new`` is what replaces it, ``rule`` is what
the mutant breaks, ``equivalent`` is None, or the one-line reason why no test
can tell the mutant from the code, and ``first`` is None, or the tests (a
path or a node id from the repository root) to run before the whole suite,
because they kill the mutant in seconds. ``tests/test_mutants.py`` checks in
tier-1 that each ``old`` text still occurs once and each ``first`` names a
test file there, so a refactor that moves one must update its entry.

Run the list from the repository root:

    python tests/mutants.py

It copies ``src``, ``tests``, ``demos`` and ``pyproject.toml`` to a temporary
directory and runs ``pytest -x -q`` there, first on the unmutated copy, which
must pass, then once per mutant on a fresh copy: its ``first`` tests, then,
unless they failed, the whole suite. The runs leave out
``tests/test_mutants.py``, which every mutant fails by removing its own old
text. A mutant is killed when a test fails, or when a run outlives three
times the unmutated run plus 30 s: a mutant that leaves ``decide``'s lock
held hangs the next test that takes it, unless its ``first`` test fails it
before. The runner prints each mutant's outcome and time, and exits 1 when a
mutant not marked equivalent survives or one marked equivalent is killed.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "demos", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    rule: str
    equivalent: Optional[str] = None
    first: Optional[str] = None


MUTANTS = [
    Mutant("horizon_short", "src/acdroute/aggregate.py",
           "+ schedule.min_age_s + schedule.tick_period_s)", "+ schedule.min_age_s)",
           "a replay ticks far enough past the last CDR to close every interval that can close"),
    Mutant("blank_row_error", "src/acdroute/store.py",
           "                if not row:\n                    continue\n", "",
           "a blank line in a CDR file is skipped, not refused"),
    Mutant("ttl_half", "src/acdroute/admission.py",
           "SEEN_TTL_S = 3600.0", "SEEN_TTL_S = 1800.0",
           "the at-most-once ledger remembers a refusal for one hour"),
    Mutant("tick_before_call_lt", "src/acdroute/sim.py",
           "while next_tick_s <= t_s:", "while next_tick_s < t_s:",
           "a tick at a call's exact time runs before the call",
           "float arrival times never land on a whole tick second"),
    Mutant("pref_tie_flip", "src/acdroute/rejection.py",
           "if quality.prefs[hi] > quality.prefs[lo]:",
           "if quality.prefs[hi] >= quality.prefs[lo]:",
           "the rejection lands on the preferred route",
           "the two preferences are validated distinct, so they never tie"),
    Mutant("disconnect_order_unchecked", "src/acdroute/store.py",
           '    if end_s < connect_s:\n'
           '        raise ValueError(f"{row[0]!r}: disconnect_time precedes connect_time")\n',
           "", "a CDR whose disconnect precedes its connect is refused as such"),
    Mutant("ledger_ignored", "src/acdroute/admission.py",
           "seen.get(call_id, now) <= now", "True",
           "a call refused once passes while its ledger entry lives (at most one refusal)"),
    Mutant("ledger_keyed_by_second", "src/acdroute/sim.py",
           "decide(idx,", "decide(second,",
           "the run keys the at-most-once ledger by its call number",
           first="tests/test_sim.py::TestTraceInvariants::test_decide_is_keyed_by_the_call_number"),
    Mutant("lock_kept", "src/acdroute/admission.py",
           "        finally:\n            self._release()", "        finally:\n            pass",
           "decide releases its lock, whatever it returns or raises",
           # the test checks the lock before it takes it again; the file's
           # earlier tests decide twice on one controller, and would hang
           first="tests/test_admission.py::TestDecide::test_unknown_vendor_is_config_error"),
    Mutant("floor_ignored", "src/acdroute/rejection.py",
           "load[lo] = quality.load_min + (0.5 - quality.load_min) * rank[lo]",
           "load[lo] = 0.5 * rank[lo]",
           "the weak route keeps at least its load_min share"),
    Mutant("billing_order_not_reversed", "src/acdroute/sim.py",
           "key=lambda spec: spec.pref, reverse=True", "key=lambda spec: spec.pref",
           "billing tries the vendor with the higher preference first"),
    Mutant("exponential_leg_zero", "src/acdroute/sim.py",
           "(round(-log(1.0 - draw()) / rate) or 1)", "round(-log(1.0 - draw()) / rate)",
           "an answered leg lasts at least one second"),
    Mutant("refusal_as_no_answer", "src/acdroute/store.py",
           "normal if answered else other if rejected else no_answer",
           "normal if answered else no_answer",
           "a refused attempt's CDR has the cause other"),
    Mutant("answer_does_not_end_call", "src/acdroute/store.py",
           "place = 0 if answered or place == last", "place = 0 if place == last",
           "an answered attempt is its call's last"),
    Mutant("first_call_off_by_one", "src/acdroute/store.py",
           "range(first, first + len(times))", "range(first + 1, first + len(times) + 1)",
           "a block's calls are numbered on from its first call number"),
    Mutant("seq_restarts_every_block", "src/acdroute/store.py",
           "        nonlocal seq\n", "        seq = 0\n",
           "decision rows are numbered from 0 across the whole run, not per block",
           first="tests/test_golden.py"),
    Mutant("failing_block_rows_dropped", "src/acdroute/store.py",
           '        finally:\n'
           '            cdr_file.write("".join(cdr_rows))\n'
           '            decision_file.write("".join(decision_rows))\n',
           '        except BaseException:\n'
           '            raise\n'
           '        cdr_file.write("".join(cdr_rows))\n'
           '        decision_file.write("".join(decision_rows))\n',
           "the rows a block made before an error in it are written",
           first="tests/test_cli.py::TestRowWriter::test_sink_error"),
    Mutant("writer_swallows_error", "src/acdroute/store.py",
           "                    errors.write(pickle.dumps(exc))\n",
           "                    pass\n",
           "an error in the writer process is raised again in the run"),
    Mutant("writer_keeps_write_end", "src/acdroute/store.py",
           "            for fd in (send_fd, error_fd):\n",
           "            for fd in (error_fd,):\n",
           "the writer closes its copy of the pipe's write end, so it reads the end "
           "of the blocks when the run's process closes or loses its own",
           # every run on the writer path then waits for its writer forever;
           # this test kills a run and gives its writer 10 s to end
           first="tests/test_cli.py::TestRowWriter::test_a_killed_run_leaves_no_process"),
    Mutant("writer_not_reaped", "src/acdroute/store.py",
           "status = os.waitpid(pid, 0)[1]", "status = 0",
           "attempt_log reaps its writer process on every exit",
           # no_child_process_left fails the test's writer_process case
           first="tests/test_cli.py::TestRowWriter::test_sink_error"),
    Mutant("run_takes_the_lock", "src/acdroute/sim.py",
           "decide = controller._decide", "decide = controller.decide",
           "the run, which owns its controller, decides without taking its lock",
           first="tests/test_sim.py::TestTraceInvariants::"
                 "test_the_run_takes_no_lock_and_hands_the_aggregator_no_refusal"),
    Mutant("refusal_handed_to_aggregator", "src/acdroute/sim.py",
           "                codes.append(-1)\n",
           "                codes.append(-1)\n                ended.append((vendor, second, 0, True))\n",
           "the run's refusals reach the aggregator only through the controller's counters",
           first="tests/test_sim.py::TestTraceInvariants::"
                 "test_the_run_takes_no_lock_and_hands_the_aggregator_no_refusal"),
]


def copy_tree(mutant: Optional[Mutant], into: Path) -> Path:
    """A copy of the tree under ``into``, with ``mutant`` applied."""
    for name in TREE:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        else:
            shutil.copy2(source, into / name)
    if mutant is not None:
        path = into / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                        encoding="utf-8")
    return into


def run_tests(tree: Path, timeout_s: Optional[float],
              tests: Sequence[str] = ()) -> Tuple[str, float]:
    """``pytest -x -q`` in ``tree``, on ``tests`` or else the whole suite:
    ("passed", "failed" or "timeout", seconds). A run past ``timeout_s`` is
    killed with its whole process group."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             "--ignore", "tests/test_mutants.py", *tests],
                            cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        outcome = "passed" if proc.wait(timeout=timeout_s) == 0 else "failed"
    except subprocess.TimeoutExpired:
        outcome = "timeout"
    finally:
        if proc.returncode is None:  # timed out, or the runner was interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return outcome, time.monotonic() - start


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        outcome, seconds = run_tests(copy_tree(None, Path(scratch) / "unmutated"), None)
        print(f"unmutated: {outcome} in {seconds:.1f} s", flush=True)
        if outcome != "passed":
            return 2
        timeout_s = 3 * seconds + 30
        faults = 0
        for mutant in MUTANTS:
            tree = copy_tree(mutant, Path(scratch) / mutant.name)
            outcome, seconds = "passed", 0.0
            if mutant.first:
                outcome, seconds = run_tests(tree, timeout_s, [mutant.first])
            if outcome == "passed":
                outcome, rest_s = run_tests(tree, timeout_s)
                seconds += rest_s
            shutil.rmtree(tree)
            survived = outcome == "passed"
            fault = survived != (mutant.equivalent is not None)
            faults += fault
            verdict = "survived" if survived else f"killed ({outcome})"
            note = f"equivalent: {mutant.equivalent}" if mutant.equivalent else mutant.rule
            print(f"{mutant.name}: {verdict} in {seconds:.1f} s{' FAULT' if fault else ''}"
                  f"  [{note}]", flush=True)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
