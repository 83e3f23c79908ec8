"""The CLI contract at scale: each command in a child process of its own.

Each case runs ``python -m safsec.cli`` with a 60 s timeout.  ``preexec_fn``
caps the child's address space at 1 GiB, so a blow-up fails the child and
not the test run, and the child's peak resident set, read from
``os.wait4``, must stay under 60 MB.  The bare CLI takes about 19 MB of it
(Python 3.11, Linux x86-64).

On Linux a child's peak resident set starts at its parent's, which fork and
exec both carry over, and the test process may hold hundreds of MB by the
time these cases run.  So a small launcher process, which holds a few MB,
starts the CLI and reads its peak.

One input is an attack-defense tree 20,000 levels deep (549 kB), with a
GSN linked to it and a scenario that sets a policy and adds two
countermeasures, the second under the first, at the bottom of the chain.
``validate``, ``process run`` (in both formats) and ``export dot`` run on
it.  Three more are scenarios of 2,000 rounds whose thresholds never hold,
one per round kind: ``set_policy`` rounds alternating two attribute
domains, a policy and then ``add_counter`` rounds that counter the leaves
of a 2,000-leaf OR one by one, and ``set_defeaters`` rounds over 200
goals.  ``validate`` and ``process run`` run on each.  ``derive adt`` runs
on a hazard goal over a chain of 20,000 strategies with a solution under
each, whose bottom solution's FMEA fragment must anchor at the top goal.
One command is still out: ``adt eval``, since ``adteval.evaluate``
recurses, so the chain raises ``RecursionError`` (ROADMAP item 2).
"""

import json
import os
import resource
import subprocess
import sys
import signal
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_S = 60
ADDRESS_SPACE = 1 << 30
PEAK_KB = 60 * 1024
DEPTH = 20_000


def deep_case(depth: int) -> str:
    """A GSN, an ADT chain ``depth`` levels deep and a three-round scenario."""
    return "".join([
        'gsn "G" {\n  goal G1 "top" {\n    defeaters outruled = 3 total = 4\n  }\n',
        '  security_link under G1 adt = "deep" weight = 1\n}\n',
        'adt "deep" {\n', *(f'attack OR "level {i}" {{\n' for i in range(depth)),
        'attack "bottom" {\nattr probability = 0.5\n}\n', "}\n" * (depth + 1),
        'scenario "S" {\n  gsn = "G"\n  adt = "deep"\n',
        "  thresholds min_belief = 0.8 max_disbelief = 0.2 max_uncertainty = 0.1\n",
        '  max_rounds = 3\n  set_policy attribute = probability op = "<=" threshold = 0.4\n',
        '  add_counter at = "bottom" defense "guard" {\n    attr probability = 0.5\n  }\n',
        '  add_counter at = "guard" attack "bypass" {\n    attr probability = 0.5\n  }\n}\n',
    ])


def strategy_chain_case(depth: int) -> str:
    """One hazard goal over a chain of ``depth`` strategies, a solution under
    each; the bottom solution's FMEA table anchors at the goal at the top."""
    levels = [f'  strategy T{i} "level {i}" under {f"T{i - 1}" if i else "G0"}\n'
              f'  solution S{i} "evidence {i}" under T{i}'
              + (' {\n    fmea_ref = "V"\n  }' if i == depth - 1 else "") + "\n"
              for i in range(depth)]
    return "".join([
        'gsn "C" {\n  goal G0 "top" {\n    hazard impact = high mechanism = trigger trace = X\n',
        "  }\n", *levels, "}\n",
        'fmea "V" {\n  row V1 function = "open valve" mode = loss_of_function severity = 7 '
        "occurrence = 3 detection = 4\n}\n",
    ])


ROUNDS = 2_000
LADDER_HEAD = (
    'scenario "S" {\n  gsn = "G"\n  adt = "A"\n'
    "  thresholds min_belief = 1 max_disbelief = 0 max_uncertainty = 0\n"
    f"  max_rounds = {ROUNDS}\n"
)


def ladder_case(kind: str) -> str:
    """A GSN, an OR over ``ROUNDS`` leaves and a scenario of ``ROUNDS``
    rounds of ``kind``, whose thresholds never hold."""
    goals = 200 if kind == "set_defeaters" else 1
    gsn = ['gsn "G" {\n  goal G0 "top" {\n    defeaters outruled = 1 total = 4\n  }\n',
           *(f'  goal G{i} "sub" under G0\n' for i in range(1, goals)),
           '  security_link under G0 adt = "A" weight = 1\n}\n']
    adt = ['adt "A" {\n  attack OR "root" {\n',
           *(f'    attack "leaf {i}" {{\n      attr probability = {(i % 9 + 1) / 10}\n'
             f"      attr cost = {i}\n    }}\n" for i in range(ROUNDS)), "  }\n}\n"]
    if kind == "set_policy":
        rounds = [f'  set_policy attribute = {("probability", "cost")[i % 2]} op = "<=" '
                  "threshold = 0.5\n" for i in range(ROUNDS)]
    elif kind == "add_counter":
        rounds = ['  set_policy attribute = probability op = "<=" threshold = 0.5\n',
                  *(f'  add_counter at = "leaf {i}" defense "guard {i}" {{\n'
                    f"    attr probability = {(i % 7 + 2) / 10}\n  }}\n"
                    for i in range(ROUNDS - 1))]
    else:
        rounds = [f"  set_defeaters goal = G{i % goals} outruled = {i % 3} total = {2 + i % 4}\n"
                  for i in range(ROUNDS)]
    return "".join([*gsn, *adt, LADDER_HEAD, *rounds, "}\n"])


# Runs ``python -m safsec.cli`` with the arguments after the first, writes
# the CLI's peak resident set (kB) to the file that the first names, and
# exits with the CLI's exit code.
LAUNCHER = """\
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "safsec.cli", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as report:
    report.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_cli(args: list[str], tmp_path: Path) -> tuple[int, str, str, int]:
    """Exit code, stdout, stderr and peak resident set (kB) of one CLI child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    report = tmp_path / "maxrss"
    launcher = subprocess.Popen([sys.executable, "-c", LAUNCHER, str(report), *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                                preexec_fn=_limit_address_space, start_new_session=True)
    try:
        out, err = launcher.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(launcher.pid, signal.SIGKILL)  # the launcher and the CLI
        launcher.communicate()
        raise AssertionError(f"{args} ran past {TIMEOUT_S} s")
    return (launcher.returncode, out.decode("utf-8"), err.decode("utf-8"),
            int(report.read_text()))


@pytest.fixture(scope="module")
def deep_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("scale") / "deep.ssm"
    path.write_text(deep_case(DEPTH), encoding="utf-8")
    return path


def test_validate_a_twenty_thousand_deep_chain(deep_file, tmp_path):
    code, out, err, peak = run_cli(["validate", str(deep_file)], tmp_path)
    assert (code, out, err) == (0, "ok\n", "")
    assert peak < PEAK_KB


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_process_run_on_a_twenty_thousand_deep_chain(deep_file, tmp_path, fmt):
    code, out, err, peak = run_cli(["--format", fmt, "process", "run", str(deep_file),
                                    "--scenario", "S"], tmp_path)
    assert err == ""
    if fmt == "machine":
        transcript = json.loads(out)
        status, rounds = transcript["status"], len(transcript["rounds"])
    else:
        lines = out.splitlines()
        status, rounds = lines[-1].split()[1], sum(line.startswith("round ") for line in lines)
    assert rounds == 3
    assert code == (0 if status == "accepted" else 1)
    assert peak < PEAK_KB


def test_export_dot_on_a_twenty_thousand_deep_chain(deep_file, tmp_path):
    code, out, err, peak = run_cli(["export", "dot", str(deep_file), "--model", "deep"],
                                   tmp_path)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert sum(" [shape=" in line for line in lines) == DEPTH + 1
    assert sum(" -> " in line for line in lines) == DEPTH
    assert peak < PEAK_KB


def test_derive_adt_on_a_twenty_thousand_level_strategy_chain(tmp_path):
    path = tmp_path / "chain.ssm"
    path.write_text(strategy_chain_case(DEPTH), encoding="utf-8")
    code, out, err, peak = run_cli(["derive", "adt", str(path), "--gsn", "C"], tmp_path)
    assert (code, err) == (0, "")
    assert out.count('attack OR "disable open valve"') == 1
    assert peak < PEAK_KB


@pytest.mark.parametrize("kind", ["set_policy", "add_counter", "set_defeaters"])
def test_validate_and_process_run_on_a_two_thousand_round_scenario(tmp_path, kind):
    path = tmp_path / "ladder.ssm"
    path.write_text(ladder_case(kind), encoding="utf-8")
    code, out, err, peak = run_cli(["validate", str(path)], tmp_path)
    assert (code, out, err) == (0, "ok\n", "")
    assert peak < PEAK_KB
    code, out, err, peak = run_cli(["--format", "machine", "process", "run", str(path),
                                    "--scenario", "S"], tmp_path)
    assert (code, err) == (1, "")
    transcript = json.loads(out)
    assert transcript["status"] == "exhausted"
    assert [r["round"] for r in transcript["rounds"]] == list(range(1, ROUNDS + 1))
    assert peak < PEAK_KB
