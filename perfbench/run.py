"""safsec benchmark: seeded workloads through the real CLI, answers checked.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload assurance_case --seed 1 --seconds 10 --trace 0

Each request is one CLI command, from argv to exit code plus machine JSON.
One client sends them in a closed loop (the next request goes out when the
previous one returns), calling ``safsec.cli.main`` in-process through
``click.testing.CliRunner``.  A run repeats whole passes over the
workload's fixed request mix until ``--seconds`` have gone by, and checks
every answer against its reference (see workloads.py).  The malformed
inputs (in ``assurance_case``) must end with exit 2, a one-line message and
no traceback; those that do not are counted apart from ``failed`` and
reported on standard error (and as ``cli.malformed_failed`` when traced).

``--trace 0`` reports the end-to-end metrics, with every time scaled to a
reference machine speed by a yardstick timed around each request (see
"machine speed" below; the raw figures go to standard error).  ``--trace 1``
is a separate run that wraps safsec's public functions from outside (see
tracing.py) and reports per-layer metrics instead, unscaled; every time and
count there is per pass of the mix, and a layer the workload never reaches
reads 0.  The spans are written to
``perfbench/_work/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable summary
with sample counts goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORK = os.path.join(HERE, "_work")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5

# Size ladders and mixes.  Medians and tails are read at fixed ranks of a
# pass's requests, so each mix keeps them inside groups of requests of about
# equal cost rather than on a step between a cheap and a costly kind (where
# a few percent of noise would swap which kind is read).  The tail is the
# 11th-slowest request, so the costliest group holds about one request per
# pass, and twice the cost of the next group stays below it: a slow spell of
# the machine must then slow about a quarter of that group, not a tenth, to
# move the tail.
#   assurance_case  costs ramp smoothly with file size (200-node ADT in
#                   all); the three 64-goal chains give three process runs
#                   of equal cost, enough for the tail even in a short run;
#                   the bundled airbag case and the malformed inputs ride
#                   along, checked every pass;
#   cutsets         the median falls among AND-of-8 minimal, AND-of-9 raw,
#                   shared-6 raw and shared-7 minimal requests (7-11 ms each),
#                   above the small random and bundled ServerTheft trees; the
#                   tail is the AND-of-11 minimal request, some 4 times the
#                   cost of any other, so a run holds about 45 of them and
#                   the tail falls near their 76th percentile, inside their
#                   spread rather than at the edge where the host's stalls
#                   sit;
#   conflicts       the median falls among the 8-input pairs and the tail
#                   among the 11-input pairs; the bundled building files are
#                   cheap and sit below the median.
# A pass stays short enough that a run holds several.  The ROADMAP probe
# sizes (chain of 200, AND of 12, 12 inputs) also run once alone, timed at
# their layer, in the traced run.
ASSURANCE = [("bushy", 24), ("bushy", 72), ("bushy", 144),
             ("chain", 16), ("chain", 40), ("chain", 64), ("chain", 64), ("chain", 64)]
ADT_NODES = 200
AND_OF_ORS = [8, 8, 9, 9, 10, 11]
SHARED_EVENT = [6, 6, 7, 7]
RANDOM_TREES = 2
PAIR_INPUTS = [6, 8, 8, 8, 9, 9, 9, 11]
RANDOM_RULE_SETS = 4

WORKLOADS = ["assurance_case", "cutsets", "conflicts"]


def build(workload: str, seed: int, workdir: str, with_probes: bool):
    """The requests of one pass (and the ROADMAP probes), from the seed alone."""
    import workloads as w

    rng = random.Random(f"{workload}:{seed}")
    data = os.path.join(SRC, "safsec", "data")
    probes = []
    requests = []
    if workload == "assurance_case":
        for i, (shape, goals) in enumerate(ASSURANCE):
            requests += w.assurance_case(rng, workdir, shape, goals, ADT_NODES, f"case{i}")
        requests += w.bundled_airbag(workdir, data)
        requests += w.malformed(rng, workdir, os.path.join(data, "airbag.ssm"))
        if with_probes:
            probes = [("aggregate_gsn_chain200", "confidence.aggregate_gsn",
                       w.plain_chain(rng, workdir, 200)),
                      ("parse_400kb", "modelfile.parser.parse",
                       w.airbag_copies(workdir, data, 200))]
    elif workload == "cutsets":
        for i, k in enumerate(AND_OF_ORS):
            requests += w.and_of_ors(rng, workdir, k, f"and{i}")
        for i, m in enumerate(SHARED_EVENT):
            requests += w.shared_event(rng, workdir, m, f"shared{i}")
        for i in range(RANDOM_TREES):
            requests += w.random_tree(rng, workdir, f"random{i}")
        requests += w.bundled_servertheft(data)
        if with_probes:
            probes = [("minimal_cut_sets_and12", "fta.minimal_cut_sets",
                       w.and_of_ors(rng, workdir, 12, "and12")[0])]
    else:
        for i, n in enumerate(PAIR_INPUTS):
            requests.append(w.requirement_pair(rng, workdir, n, False, f"consistent{i}"))
            requests.append(w.requirement_pair(rng, workdir, n, True, f"contradictory{i}"))
        for i in range(RANDOM_RULE_SETS):
            requests.append(w.random_requirements(rng, workdir, f"rules{i}"))
        requests += w.bundled_building(data)
        if with_probes:
            probes = [("find_contradictions_12", "conflicts.find_contradictions",
                       w.door_pair(rng, workdir, 12))]
    return requests, probes


# --- executing one request ------------------------------------------------------


class InProcess:
    def __init__(self) -> None:
        from weakref import WeakKeyDictionary

        from click import _compat
        from click.testing import CliRunner

        import safsec.cli

        self.runner = CliRunner()
        self.main = safsec.cli.main
        # click caches a text wrapper per output stream in a WeakKeyDictionary
        # whose value holds its key, so every CliRunner capture buffer stays
        # alive; emptied after each request, outside the timed region.
        self.stream_caches = [
            cell.cell_contents
            for name in ("_default_text_stdout", "_default_text_stderr")
            for cell in getattr(getattr(_compat, name, None), "__closure__", None) or ()
            if isinstance(cell.cell_contents, WeakKeyDictionary)
        ]
        if len(self.stream_caches) != 2:
            raise SystemExit(
                "error: click's stdout/stderr wrapper caches were not found; without "
                "emptying them every captured output stays alive, and the timings and "
                "peak_rss_mb would drift")

    def __call__(self, request):
        """(wall s, cpu s, exit code, stdout, stderr, error or None)"""
        w0, c0 = time.perf_counter(), time.process_time()
        result = self.runner.invoke(self.main, request.argv)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        for cache in self.stream_caches:
            cache.clear()
        out, err = result.stdout, result.stderr
        error = None
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            error = f"uncaught {type(result.exception).__name__}"
            err += f"\nTraceback: {error}"
        return wall, cpu, result.exit_code, out, err, error


def child_cpu_s(cmd: list[str]) -> float:
    """User plus system CPU time of one child process, from os.wait4."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            env=env, cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"error: {cmd} exited with {proc.returncode}")
    return usage.ru_utime + usage.ru_stime


def child_import_s() -> tuple[float, float]:
    """Wall time of ``import safsec.cli`` in a fresh interpreter, as it
    measures it itself (so interpreter start-up is left out), and the wall
    scale factor of the yardstick timed in that interpreter right after."""
    code = ("import time; t = time.perf_counter(); import safsec.cli; "
            "t = time.perf_counter() - t; import run; speed = run.Speed(); "
            "speed.sample(run.SPEED_SPAN); print(t, speed.factors(0, 2 * run.SPEED_SPAN)[0])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, HERE])},
                          cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"error: importing safsec.cli failed:\n{done.stderr}")
    seconds, factor = map(float, done.stdout.split())
    return seconds, factor


# --- machine speed --------------------------------------------------------------

# On a shared host (a few vCPUs of a machine that others use too) the speed
# of the same code changes, between runs and within one, by up to about 2x,
# seemingly as other work comes and goes on the same cores; CPU time changes
# with it as much as wall time does.  So the closed loop also times a
# yardstick, a fixed piece of the benchmark's own Python code about 1 ms
# long, between every two requests, and scales each request's wall (CPU)
# time by REFERENCE_S over the median wall (CPU) time of the SPEED_SPAN
# samples before it and as many after it.  Each set-up is scaled the same
# way by twice as many samples, and the import, timed in a fresh
# interpreter, by as many that interpreter takes right after it.  A time
# then reads as it would on a machine that runs the yardstick in
# REFERENCE_S; a 2-vCPU Intel Xeon VM under CPython 3.11 takes 0.6 to
# 1.3 ms.  No change to safsec can move the yardstick; the raw figures and
# the range of the scale factor go to standard error.
SPEED_WARM_UP = 3  # untimed first runs of the yardstick
SPEED_SPAN = 2
REFERENCE_S = 1.0e-3


def yardstick() -> int:
    """Python work of the kind safsec does: building small frozensets, a
    subset-minimising pass over some of them and JSON output."""
    family = sorted((frozenset(((i * 31) % 23, (i * 7) % 19, i % 5)) for i in range(300)),
                    key=len)
    kept: list[frozenset] = []
    for s in family[:120]:
        if not any(k <= s for k in kept):
            kept.append(s)
    return len(kept) + len(json.dumps([sorted(s) for s in family]))


class Speed:
    """Wall and CPU times of the yardstick over a run."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        for _ in range(SPEED_WARM_UP):
            yardstick()
        self.sample(SPEED_SPAN)

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            w0, c0 = time.perf_counter(), time.process_time()
            yardstick()
            self.wall.append(time.perf_counter() - w0)
            self.cpu.append(time.process_time() - c0)

    def factors(self, mark: int, span: int = SPEED_SPAN) -> tuple[float, float]:
        """Wall and CPU scale factors for a stretch of time that began after
        ``mark`` samples had been taken, from ``span`` samples on each side
        (fewer at the end of a run)."""
        window = slice(max(0, mark - span), mark + span)
        return (REFERENCE_S / statistics.median(self.wall[window]),
                REFERENCE_S / statistics.median(self.cpu[window]))


# --- the closed loop --------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.marks: list[int] = []  # yardstick samples taken before each request
        self.output_bytes = 0
        self.attempted = self.failed = 0
        self.malformed_attempted = self.malformed_failed = 0
        self.errors: dict[str, int] = {}
        self.by_request: dict[int, list[int]] = {}  # indices of each mix request's samples

    def record(self, request, measured, mark: int = 0) -> None:
        wall, cpu, code, out, err, error = measured
        self.by_request.setdefault(id(request), []).append(len(self.wall))
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.marks.append(mark)
        self.output_bytes += len(out.encode("utf-8"))
        error = error or request.check(code, out, err)
        if request.malformed:
            self.malformed_attempted += 1
            self.malformed_failed += error is not None
        else:
            self.attempted += 1
            self.failed += error is not None
        if error is not None:
            key = f"{request.kind}: {error}"
            self.errors[key] = self.errors.get(key, 0) + 1


def run_passes(execute, requests, seconds: float, rng: random.Random, tally: Tally,
               tracer=None, speed: Speed | None = None) -> int:
    """Whole passes over the mix, in a seeded order, until time is up."""
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        order = requests[:]
        rng.shuffle(order)
        for request in order:
            if tracer is not None:
                tracer.request += 1
            measured = execute(request)
            if speed is None:
                tally.record(request, measured)
            else:
                tally.record(request, measured, len(speed.wall))
                speed.sample()
        passes += 1
    return passes


def scaled(tally: Tally, speed: Speed) -> tuple[list[float], list[float]]:
    """The tally's wall and CPU times at the reference speed."""
    wall, cpu = [], []
    for w, c, mark in zip(tally.wall, tally.cpu, tally.marks):
        wall_factor, cpu_factor = speed.factors(mark)
        wall.append(w * wall_factor)
        cpu.append(c * cpu_factor)
    return wall, cpu


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def warm_up(requests) -> list:
    """The middle-sized request of each kind (requests come in ladder order)."""
    by_kind: dict[str, list] = {}
    for request in requests:
        by_kind.setdefault(request.kind, []).append(request)
    return [same[len(same) // 2] for same in by_kind.values()]


def setup(workload: str, seed: int, workdir: str, with_probes: bool = False):
    """Set up several times; return the inputs and the median set-up time.

    One set-up generates and writes the inputs and sends one warm-up
    request of each kind.  The import of safsec.cli, timed as often in
    fresh interpreters, is added.  The deferred reference answers
    (oracles, enumerated families) are worked out afterwards, untimed, so
    that set-up time is not the harness's own.
    """
    import safsec.cli  # noqa: F401

    speed = Speed()
    span = 2 * SPEED_SPAN
    raw: dict[str, list[float]] = {"import": [], "set-up": []}
    at_reference: dict[str, list[float]] = {"import": [], "set-up": []}

    for _ in range(SETUP_REPEATS):
        seconds, factor = child_import_s()
        raw["import"].append(seconds)
        at_reference["import"].append(seconds * factor)
    for _ in range(SETUP_REPEATS):
        requests = probes = None  # one generation of inputs alive at a time
        mark = len(speed.wall)
        t0 = time.perf_counter()
        requests, probes = build(workload, seed, workdir, with_probes)
        execute = InProcess()
        for request in warm_up(requests):
            execute(request)
        raw["set-up"].append(time.perf_counter() - t0)
        speed.sample(span)
        at_reference["set-up"].append(raw["set-up"][-1] * speed.factors(mark, span)[0])
    t0 = time.perf_counter()
    for request in requests + [r for _, _, r in probes]:
        if request.reference is not None:
            request.reference()
    print(f"{workload:15} set-up (raw medians): import {statistics.median(raw['import']):.4f} s, "
          f"set-up {statistics.median(raw['set-up']):.4f} s; reference answers (untimed) "
          f"{time.perf_counter() - t0:.4f} s", file=sys.stderr)
    return (requests, probes,
            statistics.median(at_reference["import"]) + statistics.median(at_reference["set-up"]))


def settle() -> int:
    """Keep the set-up's objects (inputs, reference answers) out of the way
    of the garbage collections that the requests trigger; return the peak
    RSS so far, in kB."""
    gc.collect()
    gc.freeze()
    return peak_rss_kb()


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def forked(fn):
    """Run fn() in a forked child; return (its result, the child's peak RSS
    in kB when it started, and when it ended).

    A forked child's peak RSS starts at the RSS it inherits, not at the
    parent's peak, so its end figure is the peak while fn() ran (or the
    inherited RSS, if fn() never went above it)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            start_kb = peak_rss_kb()
            result = fn()
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump((result, start_kb, peak_rss_kb()), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise SystemExit("error: the process running the timed requests failed")
    return pickle.loads(data)


def end_to_end(workload, seed, seconds, workdir) -> tuple[Tally, dict]:
    requests, _, setup_s = setup(workload, seed, workdir)
    execute = InProcess()
    setup_peak_kb = settle()

    def timed() -> tuple[Tally, Speed, int]:
        tally, speed = Tally(), Speed()
        passes = run_passes(execute, requests, seconds, random.Random(seed), tally, speed=speed)
        return tally, speed, passes

    # The timed requests run in a child, so that peak_rss_mb is the peak
    # while they run rather than the peak of the set-up before them.
    (tally, speed, passes), start_kb, peak_kb = forked(timed)
    print(f"{workload:15} RSS: set-up peak {setup_peak_kb / 1024:.2f} MB; timed requests "
          f"start at {start_kb / 1024:.2f} MB and peak at {peak_kb / 1024:.2f} MB",
          file=sys.stderr)
    wall, cpu = scaled(tally, speed)
    factors = sorted(speed.factors(mark)[0] for mark in tally.marks)
    print(f"{workload:15} raw latency p50 {statistics.median(tally.wall) * 1e3:.4f} ms, tail "
          f"{tail(tally.wall)[0] * 1e3:.4f} ms; yardstick {len(speed.wall)} samples, median "
          f"{statistics.median(speed.wall) * 1e3:.4f} ms; wall scale factor {factors[0]:.3f}"
          f"..{factors[-1]:.3f}", file=sys.stderr)
    lat_tail, lat_pct = tail(wall)
    cpu_tail, cpu_pct = tail(cpu)
    n = len(wall)
    metrics = {
        "latency_p50_ms": (statistics.median(wall) * 1e3, "ms", n),
        "latency_tail_ms": (lat_tail * 1e3, "ms", f"{n}, p{lat_pct:.1f}"),
        "cpu_p50_ms": (statistics.median(cpu) * 1e3, "ms", n),
        "cpu_tail_ms": (cpu_tail * 1e3, "ms", f"{n}, p{cpu_pct:.1f}"),
        # at the fixed mix, from each request's median time over the run, so
        # that a slow spell of the machine in a few passes does not move it
        "requests_per_s": (
            len(requests) / sum(statistics.median(wall[i] for i in v)
                                for v in tally.by_request.values()),
            "1/s", f"{passes} passes"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
    }
    return tally, metrics


def startup_cpu_ms(code: str) -> float:
    return statistics.median(
        child_cpu_s([sys.executable, "-c", code]) for _ in range(STARTUP_REPEATS)) * 1e3


def traced(workload, seed, seconds, workdir) -> tuple[Tally, dict]:
    from tracing import EXPONENTS, LAYERS, Tracer, exponent

    from workloads import PROBE_ROADMAP_S

    requests, probes, _ = setup(workload, seed, workdir, with_probes=True)
    tracer = Tracer()
    execute = InProcess()
    settle()
    # Untraced and traced passes alternate, so that both see the same
    # machine; their ratio is the tracing overhead.
    order_plain, order_traced = random.Random(seed), random.Random(seed)
    untraced_s, traced_s = [], []
    tally, base = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    while not traced_s or time.perf_counter() < deadline:
        before = sum(base.wall)
        run_passes(execute, requests, 0, order_plain, base)
        untraced_s.append(sum(base.wall) - before)
        before = sum(tally.wall)
        tracer.install()
        run_passes(execute, requests, 0, order_traced, tally, tracer)
        tracer.uninstall()
        traced_s.append(sum(tally.wall) - before)
    passes = len(traced_s)
    per_pass = lambda v: v / passes
    calls, self_s, counts = dict(tracer.calls), dict(tracer.self_s), dict(tracer.counts)
    sizes = {k: list(v) for k, v in tracer.sizes.items()}

    tracer.install()
    probe_s = {}
    for name, layer, request in probes:
        tracer.request += 1
        mark = len(tracer.spans)
        tally.record(request, execute(request))
        probe_s[name] = max((s[5] - s[4] for s in tracer.spans[mark:] if s[3] == layer), default=0.0)
    tracer.uninstall()

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (per_pass(calls.get(layer, 0)), "count")
        metrics[f"{layer}.self_s"] = (per_pass(self_s.get(layer, 0.0)), "s")
    ratio = lambda a, b: a / b if b else 0.0
    count = lambda k: counts.get(k, 0.0)
    metrics.update({
        "modelfile.lexer.tokens_per_s": (ratio(count("modelfile.lexer.tokens"),
                                               self_s.get("modelfile.lexer.tokenize", 0)), "1/s"),
        "modelfile.parser.bytes_per_s": (
            ratio(count("modelfile.parser.bytes"), self_s.get("modelfile.parser.parse", 0)
                  + self_s.get("modelfile.lexer.tokenize", 0)), "B/s"),
        "modelfile.printer.bytes": (per_pass(count("modelfile.printer.bytes")), "B"),
        "validate.diagnostics": (per_pass(count("validate.diagnostics")), "count"),
        "process.rounds": (per_pass(count("process.rounds")), "count"),
        "derive.derived_nodes": (per_pass(count("derive.derived_nodes")), "count"),
        "adteval.nodes_evaluated": (per_pass(count("adteval.nodes_evaluated")), "count"),
        "fta.raw_sets": (per_pass(count("fta.raw_sets")), "count"),
        "fta.minimal_sets": (per_pass(count("fta.minimal_sets")), "count"),
        "fta.minimal_ratio": (ratio(count("fta.minimal_sets"), count("fta.minimize_input")), "ratio"),
        "conflicts.assignments": (per_pass(count("conflicts.assignments")), "count"),
        "conflicts.witnesses": (per_pass(count("conflicts.witnesses")), "count"),
        "conflicts.witness_ratio": (ratio(count("conflicts.witnesses"),
                                          count("conflicts.assignments")), "ratio"),
        "cli.output_bytes": (per_pass(tally.output_bytes), "B"),
        "cli.malformed_failed": (per_pass(tally.malformed_failed), "count"),
    })
    for layer in EXPONENTS:
        metrics[f"{layer}.exponent"] = (exponent(sizes.get(layer, ())), "slope")
    metrics["startup.interpreter_cpu_ms"] = (startup_cpu_ms("pass"), "ms")
    metrics["startup.import_cpu_ms"] = (startup_cpu_ms("import safsec.cli"), "ms")
    for name, roadmap_s in PROBE_ROADMAP_S.items():
        metrics[f"probe.{name}_s"] = (probe_s.get(name, 0.0), "s")
        metrics[f"probe.{name}.vs_roadmap"] = (ratio(probe_s.get(name, 0.0), roadmap_s), "ratio")
    metrics["trace.overhead_ratio"] = (
        ratio(statistics.median(traced_s), statistics.median(untraced_s)), "ratio")
    # Self times of every layer plus ``cli`` (the command callbacks) against
    # the traced requests' wall time around the invoke; the rest is click's
    # parsing and dispatch and CliRunner's stream capture.
    accounted = ratio(sum(self_s.values()), sum(traced_s))
    metrics["trace.accounted_ratio"] = (accounted, "ratio")
    print(f"{workload:15} traced wall time not covered by any span: {1 - accounted:.1%}",
          file=sys.stderr)
    tracer.dump(os.path.join(WORK, f"trace-{workload}-{seed}.json"))
    for field in ("attempted", "failed", "malformed_attempted", "malformed_failed"):
        setattr(tally, field, getattr(tally, field) + getattr(base, field))
    for error, n in base.errors.items():
        tally.errors[error] = tally.errors.get(error, 0) + n
    return tally, {k: (v, unit, passes) for k, (v, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    for needed in (os.path.join(SRC, "safsec", "cli.py"), os.path.join(TESTS, "generators.py")):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from the root of a safsec checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, TESTS]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        measure = traced if args.trace else end_to_end
        tally, metrics = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload:15} {name:42} {value:14.6g} {unit:6} (n={samples})", file=sys.stderr)
    print(f"{args.workload:15} failed_ratio {tally.failed}/{tally.attempted}; malformed inputs "
          f"failing the exit-2 contract: {tally.malformed_failed}/{tally.malformed_attempted}",
          file=sys.stderr)
    for error, n in sorted(tally.errors.items()):
        print(f"  {n:5d} x {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
