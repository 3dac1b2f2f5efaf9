"""Benchmark of the cavityswap simulator, end to end and layer by layer.

    python3 bench/run.py --workload {shots,ladder,sweep,oracles} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is read from
``src/`` and need not be installed.  The workloads and their output checks
are defined in ``workloads.py``.

Load model: a closed loop with one client.  A workload is a fixed list of
invocations, run one at a time and repeated in rounds until ``--seconds``
have passed (at least two rounds, so the artifacts of identical invocations
can be compared byte for byte; the last untraced round holds only the
invocations that still fit).

``--trace 0`` gives the end-to-end metrics.  Every invocation is a child
process launched as users launch the CLI: ``cavityswap.cli.run()`` with
``src`` on ``PYTHONPATH`` (the oracle workload runs ``oracles.py``).

* ``setup_s``: median of fresh interpreters importing ``cavityswap.cli``,
  one after each round and at least seven, after one untimed warm-up that
  writes byte-code.
* ``wall_s``: wall time of one round, taking the lower quartile of each
  invocation's clean runs.  On a shared host CPU speed drifts by 20-40 %
  in phases of seconds to minutes, and now and then runs much faster for
  a moment: the lower quartile follows the least slowed runs, as a
  minimum does, without resting on a single lucky one, and so varies less
  from run to run than either a median or a minimum.
* ``work_per_s``: a round's work over ``wall_s``; the unit of work is
  shots, time points, sweep rows or oracle checks.
* ``peak_rss_mb``: the largest over invocations of the median child peak
  RSS.

``--trace 1`` gives the per-layer metrics.  The same invocations run in this
process through ``cavityswap.cli.main(argv)`` and ``oracles.main(argv)``,
alternating an untraced and a traced round.  Counts and times are per round
(medians over traced rounds); ``trace.overhead_s`` is the median traced
round wall time minus the median untraced one.  Spans of the last traced
round are written to ``.bench-out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts invocations;
``failed`` counts those that exited non-zero, left an expected artifact
missing, failed an output check, or wrote bytes that differ from the first
round.  Timings come only from clean runs (untraced) or rounds in which
nothing failed (traced).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
LAUNCHER = "from cavityswap.cli import run; run()"
SETUP_CODE = "import cavityswap.cli"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60.0
ENV_PROBE = """
import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    blas = None
print(json.dumps({"numpy": numpy.__version__, "blas": blas}))
"""

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("quantum.expm.calls", "count"),
    ("quantum.expm.s", "s"),
    ("quantum.concurrence.calls", "count"),
    ("quantum.concurrence.s", "s"),
    ("quantum.evolve.calls", "count"),
    ("quantum.evolve.s", "s"),
    ("quantum.norm_drift_max", "1"),
    ("quantum.self_s", "s"),
    ("bragg.ladder_population_series.calls", "count"),
    ("bragg.ladder_population_series.self_s", "s"),
    ("bragg.ladder_population_series.points", "count"),
    ("bragg.propagators_per_series", "expm/series"),
    ("bragg.analytic_amplitudes.calls", "count"),
    ("bragg.analytic_amplitudes.s", "s"),
    ("bragg.evolve_ladder.calls", "count"),
    ("bragg.evolve_ladder.s", "s"),
    ("bragg.pair_oracle_fidelity.s", "s"),
    ("bragg.max_excited_population.calls", "count"),
    ("bragg.max_excited_population.self_s", "s"),
    ("bragg.self_s", "s"),
    ("swap.run_protocol.calls", "count"),
    ("swap.run_protocol.self_s", "s"),
    ("swap.sampler_ns_per_shot", "ns"),
    ("swap.shot_generator.calls", "count"),
    ("swap.shot_generator.s", "s"),
    ("swap.herald_distribution.calls", "count"),
    ("swap.herald_distribution.s", "s"),
    ("swap.click_distribution.s", "s"),
    ("swap.beam_splitter_unitary.hits", "count"),
    ("swap.beam_splitter_unitary.misses", "count"),
    ("swap.self_s", "s"),
    ("metrics.run_sweep.self_s", "s"),
    ("metrics.rows", "count"),
    ("metrics.row_errors", "count"),
    ("metrics.oracle_compare.self_s", "s"),
    ("metrics.wilson_interval.calls", "count"),
    ("metrics.oracle_max_error", "1"),
    ("metrics.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.load_config.s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.files_written", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Result:
    """One invocation: its exit code, cost, and what the checks found."""

    key: str
    program: str
    rc: int
    wall: float
    rss_mb: float
    failures: list
    seen: dict
    digest: str = ""
    bytes_written: int = 0
    files_written: int = 0
    cache: dict = field(default_factory=dict)


def cap_threads(env) -> None:
    """Cap BLAS/OpenMP thread pools at the number of usable cores."""
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= NPROC:
            env[var] = str(NPROC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    # Time imports the way an installed package behaves: with byte-code caches.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(cmd, cwd: Path, env: dict) -> tuple:
    """Run one child to completion; return (exit code, wall s, peak RSS MB, stderr tail)."""
    err_path = cwd / "stderr.log"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")[-400:]


def command(inv, launcher: str) -> list:
    if inv.program == "cli":
        return [sys.executable, "-c", launcher, *inv.argv]
    return [sys.executable, str(Path(__file__).with_name("oracles.py")), *inv.argv]


def prepare(inv, workdir: Path) -> None:
    """Start from an empty output directory, so only fresh artifacts count."""
    shutil.rmtree(workdir / inv.key, ignore_errors=True)
    if inv.config is not None:
        (workdir / f"{inv.key}.json").write_text(json.dumps(inv.config))


def inspect(inv, workdir: Path, rc: int, wall: float, rss_mb: float, detail: str) -> Result:
    out = workdir / inv.key
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}: {detail.strip()[-200:]}")
    missing = [name for name in inv.artifacts if not (out / name).is_file()]
    if missing:
        failures.append(f"missing artifacts {missing}")
    seen = {}
    if not failures:
        try:
            fails, seen = inv.check(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            fails = [f"output check raised {exc!r}"]
        failures += fails
    digest = hashlib.sha256()
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    for path in files:
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        with open(path, "rb") as f:
            while chunk := f.read(1 << 20):
                digest.update(chunk)
    return Result(inv.key, inv.program, rc, wall, rss_mb, failures, seen, digest.hexdigest(),
                  sum(p.stat().st_size for p in files), len(files))


def repeat(seconds: float, run_round) -> list:
    """Run rounds while another round of the last one's length fits in
    ``seconds`` (at least two); mark artifacts that differ from the first
    clean round of the same invocation as failures."""
    rounds, first = [], {}
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(rounds) < 2 or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        results = run_round()
        last = time.perf_counter() - start
        mark_changed(results, first)
        rounds.append(results)
    return rounds


def mark_changed(results: list, first: dict) -> None:
    """Fail clean runs whose artifacts differ from the first clean run of
    the same invocation (``first`` maps keys to digests)."""
    for r in results:
        if not r.failures and first.setdefault(r.key, r.digest) != r.digest:
            r.failures.append("artifact bytes differ from the first round")


def import_time(workdir: Path, env: dict) -> float | None:
    """Wall time of a fresh interpreter importing the CLI, or None if it fails."""
    rc, wall, _, detail = run_child([sys.executable, "-c", SETUP_CODE], workdir, env)
    if rc != 0:
        print(f"import cavityswap.cli failed: {detail.strip()[-200:]}", file=sys.stderr)
        return None
    return wall


def lower_quartile(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def measure_untraced(wl, seconds: float, workdir: Path, launcher: str = LAUNCHER) -> tuple:
    """Return (rounds, end-to-end metrics or None when an invocation never ran clean).

    Every invocation runs at least twice; after that it runs again while a
    run as long as its last one still ends before the deadline, so the last
    round may hold only some of the invocations and no measuring time is
    left idle.
    """
    env = child_env()
    import_time(workdir, env)  # untimed warm-up: writes the byte-code caches
    setup, rounds, first, last = [], [], {}, {}
    deadline = time.perf_counter() + seconds
    while True:
        results = []
        for inv in wl.invocations:
            if len(rounds) >= 2 and time.perf_counter() + last[inv.key] > deadline:
                continue
            prepare(inv, workdir)
            rc, wall, rss_mb, detail = run_child(command(inv, launcher), workdir, env)
            last[inv.key] = wall
            results.append(inspect(inv, workdir, rc, wall, rss_mb, detail))
        if not results:
            break
        mark_changed(results, first)
        rounds.append(results)
        # One import sample per round, so that setup_s is taken over the same
        # stretch of time as the rounds and shares their host conditions.
        setup.append(import_time(workdir, env))
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_time(workdir, env))
    clean = [[r for rnd in rounds for r in rnd if r.key == inv.key and not r.failures]
             for inv in wl.invocations]
    if None in setup or not all(clean):
        return rounds, None
    work = sum(inv.work for inv in wl.invocations)
    wall = sum(lower_quartile([r.wall for r in runs]) for runs in clean)
    return rounds, {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "work_per_s": work / wall,
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in runs) for runs in clean),
    }


def _clear_caches(modules) -> None:
    # Each CLI invocation is a fresh process, so in-process rounds start cold.
    for module in modules:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def in_process_round(wl, workdir: Path, entries: dict, package: list) -> list:
    results = []
    swap = sys.modules["cavityswap.swap"]
    for inv in wl.invocations:
        prepare(inv, workdir)
        _clear_caches(package)
        detail = ""
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                # Looked up per call so that a patched binding is used.
                rc = entries[inv.program].main(list(inv.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crashing invocation is a failed operation
                rc, detail = 1, repr(exc)
        wall = time.perf_counter() - start
        result = inspect(inv, workdir, rc, wall, 0.0, detail)
        info = getattr(getattr(swap, "beam_splitter_unitary", None), "cache_info", None)
        if info is not None:
            result.cache = {"hits": info().hits, "misses": info().misses}
        results.append(result)
    return results


def layer_values(tracer, results: list) -> dict:
    s, x = tracer.stats, tracer.extra
    series = s["bragg.ladder_population_series"].calls
    shots = x["swap.run_protocol.shots"]
    layer = tracer.layer_self_seconds()
    seen = {k: v for r in results for k, v in r.seen.items()}
    cli = [r for r in results if r.program == "cli"]
    cache = [r.cache for r in results if r.cache]
    values = {
        "quantum.expm.calls": s["quantum.expm"].calls,
        "quantum.expm.s": s["quantum.expm"].seconds,
        "quantum.concurrence.calls": s["quantum.concurrence"].calls,
        "quantum.concurrence.s": s["quantum.concurrence"].seconds,
        "quantum.evolve.calls": s["quantum.evolve"].calls,
        "quantum.evolve.s": s["quantum.evolve"].seconds,
        "quantum.norm_drift_max": seen.get("norm_drift_max", 0.0),
        "bragg.ladder_population_series.calls": series,
        "bragg.ladder_population_series.self_s": s["bragg.ladder_population_series"].self_seconds,
        "bragg.ladder_population_series.points": x["bragg.ladder_population_series.points"],
        "bragg.propagators_per_series":
            x["quantum.expm@bragg.ladder_population_series"] / series if series else 0.0,
        "bragg.analytic_amplitudes.calls": s["bragg.analytic_amplitudes"].calls,
        "bragg.analytic_amplitudes.s": s["bragg.analytic_amplitudes"].seconds,
        "bragg.evolve_ladder.calls": s["bragg.evolve_ladder"].calls,
        "bragg.evolve_ladder.s": s["bragg.evolve_ladder"].seconds,
        "bragg.pair_oracle_fidelity.s": s["bragg.pair_oracle_fidelity"].seconds,
        "bragg.max_excited_population.calls": s["bragg.max_excited_population"].calls,
        "bragg.max_excited_population.self_s": s["bragg.max_excited_population"].self_seconds,
        "swap.run_protocol.calls": s["swap.run_protocol"].calls,
        "swap.run_protocol.self_s": s["swap.run_protocol"].self_seconds,
        "swap.sampler_ns_per_shot": 1e9 * s["swap.run_protocol"].self_seconds / shots if shots else 0.0,
        "swap.shot_generator.calls": s["swap.shot_generator"].calls,
        "swap.shot_generator.s": s["swap.shot_generator"].seconds,
        "swap.herald_distribution.calls": s["swap.herald_distribution"].calls,
        "swap.herald_distribution.s": s["swap.herald_distribution"].seconds,
        "swap.click_distribution.s": s["swap.click_distribution"].seconds,
        "swap.beam_splitter_unitary.hits": sum(c["hits"] for c in cache),
        "swap.beam_splitter_unitary.misses": sum(c["misses"] for c in cache),
        "metrics.run_sweep.self_s": s["metrics.run_sweep"].self_seconds,
        "metrics.rows": x["metrics.rows"],
        "metrics.row_errors": x["metrics.row_errors"],
        "metrics.oracle_compare.self_s": s["metrics.oracle_compare"].self_seconds,
        "metrics.wilson_interval.calls": s["metrics.wilson_interval"].calls,
        "metrics.oracle_max_error": seen.get("oracle_max_error", 0.0),
        "cli.main.self_s": s["cli.main"].self_seconds,
        "cli.load_config.s": s["cli.load_config"].seconds,
        "cli.bytes_written": sum(r.bytes_written for r in cli),
        "cli.files_written": sum(r.files_written for r in cli),
    }
    values.update({f"{name}.self_s": seconds for name, seconds in layer.items()})
    return values


def measure_traced(wl, seconds: float, workdir: Path) -> tuple:
    """Return (rounds, per-layer metrics or None, layer self-time shares, spans, absent names)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cavityswap.cli
    import oracles
    from tracer import LAYERS, Tracer

    entries = {"cli": cavityswap.cli, "oracles": oracles}
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "cavityswap"]
    tracer = Tracer()
    untraced, traced, per_round = [], [], []
    absent: list = []

    def pair() -> list:
        plain = in_process_round(wl, workdir, entries, package)
        tracer.install()
        try:
            results = in_process_round(wl, workdir, entries, package)
        finally:
            tracer.uninstall()
        untraced.append(plain)
        traced.append(results)
        absent[:] = tracer.absent + ([] if results[0].cache else ["swap.beam_splitter_unitary"])
        per_round.append(layer_values(tracer, results))
        return plain + results

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rounds = repeat(seconds, pair)
    finally:
        os.chdir(cwd)
    clean = [i for i, (a, b) in enumerate(zip(untraced, traced)) if not any(r.failures for r in a + b)]
    if not clean:
        return rounds, None, {}, [], absent
    metrics = {name: statistics.median(per_round[i][name] for i in clean) for name in per_round[0]}
    traced_wall = statistics.median(sum(r.wall for r in traced[i]) for i in clean)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(sum(r.wall for r in untraced[i]) for i in clean)
    shares = {name: metrics[f"{name}.self_s"] / traced_wall for name in LAYERS}
    return rounds, metrics, shares, tracer.spans, absent


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=child_env(),
                               capture_output=True, text=True, timeout=60)
        libs = json.loads(probe.stdout)
    except (OSError, subprocess.TimeoutExpired, json.JSONDecodeError):
        libs = {"numpy": "unknown", "blas": None}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        **libs,
        "nproc": NPROC,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def emit(rounds: list, metrics: dict | None, units: tuple) -> int:
    results = [r for rnd in rounds for r in rnd]
    failed = [r for r in results if r.failures]
    for r in failed[:10]:
        print(f"FAILED {r.key}: {'; '.join(r.failures)}", file=sys.stderr)
    print(f"failed_ops = {len(failed)}/{len(results)}")
    values = {}
    if metrics is not None:
        for name, unit in units:
            values[name] = {"value": metrics[name], "unit": unit}
            print(f"{name:42s} {metrics[name]:.6g} {unit}")
    correct = metrics is not None and not failed
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failed),
                      "metrics": values}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cavityswap benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "cavityswap" / "cli.py").is_file():
        print(f"error: no cavityswap sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    cap_threads(os.environ)
    wl = workloads.build(args.workload, args.seed)
    print(json.dumps({"env": environment(args)}))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if not args.trace:
            rounds, metrics = measure_untraced(wl, args.seconds, workdir)
            if metrics is not None:
                for inv in wl.invocations:
                    walls = [r.wall for rnd in rounds for r in rnd if r.key == inv.key]
                    print(f"{inv.key}: {len(walls)} runs, wall s fastest {min(walls):.6g}"
                          f" lower quartile {lower_quartile(walls):.6g}"
                          f" median {statistics.median(walls):.6g} slowest {max(walls):.6g}")
                print(f"{wl.work_unit}_per_s = {metrics['work_per_s']:.6g}")
            seen = {k: v for rnd in rounds for r in rnd for k, v in r.seen.items()}
            for name, value in sorted(seen.items()):
                print(f"{name} = {value:.6g}")
            return emit(rounds, metrics, END_TO_END)
        rounds, metrics, shares, spans, absent = measure_traced(wl, args.seconds, workdir)
        if absent:
            print(f"absent (reported as 0): {', '.join(absent)}")
        if metrics is not None:
            busiest = max(shares, key=shares.get)
            print("layer self-time share of a traced round: "
                  + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()) + f"; busiest: {busiest}")
            origin = min((sp[1] for sp in spans if sp), default=0.0)
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
                [[name, start - origin, end - origin, parent] for name, start, end, parent in spans]))
        return emit(rounds, metrics, PER_LAYER)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
