"""Run one slopenorm benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sweep|catalog|cli --seed N \\
        --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory, so no install is needed.  With ``--trace 0`` the workload runs as
a closed loop for S seconds and the end-to-end metrics are printed.  With
``--trace 1`` one cycle of the workload is run repeatedly, alternately
untraced and traced, for S seconds, and the per-layer metrics are printed;
the spans of the first traced cycle are written to
``.bench_out/trace-<workload>-<seed>.json``.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Scratch files go to ``.bench_tmp/`` and are removed at exit.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
START_PROBES = 7
PROBE_TIMEOUT_S = 60
CONTROL_EVERY_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: set up the workload in a fresh interpreter and report when ready
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hash_seed(seed: int) -> int:
    return random.Random(f"PYTHONHASHSEED:{seed}").randrange(1, 2**32)


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    return env


def import_library():
    sys.path.insert(0, str(SRC))
    import slopenorm
    import slopenorm.cli  # noqa: F401  (the CLI's import cost is part of set-up)

    return slopenorm


@contextlib.contextmanager
def scratch_dir(workload: str):
    path = ROOT / ".bench_tmp" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def make_workload(args, sn, workdir):
    cls = WORKLOADS[args.workload]
    if args.workload == "cli":
        return cls(sn, args.seed, workdir, env=child_env(args.seed))
    return cls(sn, args.seed, workdir)


# -- requests and their checks ------------------------------------------------------


class Raised(str):
    """Fingerprint of a request that raised instead of returning."""


class Outcome:
    """Latencies, work units and first fingerprints of the requests run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.units = 0
        self.seen: dict = {}  # key -> [request, first fingerprint, count, mismatches]
        self.problems: list[str] = []
        self.failed = 0

    def record(self, workload, request, run) -> float:
        start = time.perf_counter()
        try:
            output = run(request)
        except Exception as exc:  # a request that raises is a failed request
            output = Raised(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        if isinstance(output, Raised):
            fingerprint = output
        else:
            self.units += workload.units(request)
            try:
                fingerprint = workload.fingerprint(request, output)
            except Exception as exc:
                fingerprint = Raised(f"reading the output: {type(exc).__name__}: {exc}")
        entry = self.seen.setdefault(workload.key(request), [request, fingerprint, 0, 0])
        entry[2] += 1
        if entry[1] != fingerprint:
            entry[3] += 1
            self.problems.append(f"{request}: output differs from an earlier run of the same request")
        return elapsed

    def check(self, workload) -> None:
        """Run the oracles once per distinct request; a request is failed if
        its first output is wrong or a repeat differs from the first."""
        for request, fingerprint, count, mismatches in self.seen.values():
            if isinstance(fingerprint, Raised):
                problems = [f"{request}: raised {fingerprint}"]
            else:
                try:
                    problems = workload.check(request, fingerprint)
                except Exception as exc:
                    problems = [f"{request}: check raised {type(exc).__name__}: {exc}"]
            self.problems += problems
            self.failed += count if problems else mismatches

    @property
    def attempted(self) -> int:
        return len(self.latencies)


# -- timing helpers -------------------------------------------------------------------


def control_loop_ms() -> float:
    """One run of a fixed pure-Python loop; its drift is the machine's."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000


def time_to_ready(cmd, env) -> tuple[float, str]:
    """Seconds from spawning ``cmd`` until it prints a wall-clock time, and
    the rest of that line.  Both clocks are this machine's."""
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {cmd} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    stamp, _, rest = proc.stdout.strip().splitlines()[-1].partition(" ")
    return float(stamp) - start, rest


def setup_probe(args) -> int:
    sn = import_library()
    with scratch_dir(f"{args.workload}-probe") as workdir:
        make_workload(args, sn, workdir).setup()
        print(time.time(), flush=True)
    return 0


def setup_seconds(args) -> float:
    """Spawn-to-ready time of one fresh process that sets the workload up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    return time_to_ready(cmd, child_env(args.seed))[0]


def start_and_import_ms(seed: int) -> tuple[float, float]:
    """Medians over fresh interpreters of (start to first statement, time to
    import slopenorm.cli)."""
    code = "import time; t = time.time(); import slopenorm.cli; print(t, time.time() - t)"
    starts, imports = [], []
    for _ in range(START_PROBES):
        started, rest = time_to_ready([sys.executable, "-c", code], child_env(seed))
        imports.append(float(rest))
        starts.append(started)
    return statistics.median(starts) * 1000, statistics.median(imports) * 1000


def peak_rss_mb(workload) -> float:
    """This process's peak plus the largest peak among the workload's own
    children (the CLI processes); set-up probes are not counted."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + workload.peak_child_kb) / 1024  # ru_maxrss is in KiB on Linux


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, control: list[float]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "control_loop_ms_median": statistics.median(control),
        "control_loop_ms_runs": len(control),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run ---------------------------------------------------------------


def measure(args, sn) -> tuple[Outcome, dict, dict]:
    """Closed loop for ``args.seconds``, tracing off: end-to-end metrics."""
    with scratch_dir(args.workload) as workdir:
        workload = make_workload(args, sn, workdir)
        workload.setup()
        workload.run(workload.requests[0])  # warm-up, not sampled
        outcome = Outcome()
        requests = workload.requests
        control, setups = [], []
        start = time.perf_counter()
        deadline = start + args.seconds
        i = 0
        # the control loop and the set-up probes run between requests, untimed,
        # spread over the run so that they see the same machine as the requests
        while (now := time.perf_counter()) < deadline:
            if now - start >= len(control) * CONTROL_EVERY_S:
                control.append(control_loop_ms())
            if now - start >= len(setups) * args.seconds / SETUP_PROBES:
                setups.append(setup_seconds(args))
            outcome.record(workload, requests[i % len(requests)], workload.run)
            i += 1
        rss = peak_rss_mb(workload)
        outcome.check(workload)
    lat = sorted(outcome.latencies)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "throughput_per_s": metric(outcome.units / sum(lat), "1/s"),
        "req_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
        "req_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
        "ok_ratio": metric(1 - outcome.failed / outcome.attempted, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return outcome, metrics, metadata(args, control)


def trace(args, sn) -> tuple[Outcome, dict, dict]:
    """Alternate untraced and traced passes over one cycle: per-layer metrics."""
    tracer = tracing.Tracer()
    outcome = Outcome()
    passes = {False: [], True: []}
    self_times: dict[str, list[float]] = {}
    first: dict = {}
    control = []
    started = time.perf_counter()
    with scratch_dir(args.workload) as workdir:
        workload = make_workload(args, sn, workdir)
        run = workload.run_in_process if args.workload == "cli" else workload.run
        units = sum(workload.units(r) for r in workload.requests)
        while not passes[True] or time.perf_counter() - started < args.seconds:
            control.append(control_loop_ms())
            for traced in (False, True):
                tracer.reset()
                with tracer.installed(sn) if traced else contextlib.nullcontext():
                    tracer.request = "setup"
                    start = time.perf_counter()
                    workload.setup()
                    elapsed = time.perf_counter() - start
                    for i, request in enumerate(workload.requests):
                        tracer.request = i
                        elapsed += outcome.record(workload, request, run)
                passes[traced].append(elapsed)
                if traced:
                    for name, (_, _, self_s) in tracer.stats.items():
                        self_times.setdefault(name, []).append(self_s)
                    if not first:
                        first = {
                            "stats": {k: list(v) for k, v in tracer.stats.items()},
                            "counters": dict(tracer.counters),
                            "spans": list(tracer.spans),
                        }
        outcome.check(workload)
    start_ms, import_ms = start_and_import_ms(args.seed)

    metrics = {}
    for name, *_ in tracing.LAYERS:
        calls = first["stats"].get(name, [0])[0]
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(statistics.median(self_times.get(name, [0.0])), "s")
    for name in tracing.COUNTERS:
        metrics[name] = metric(first["counters"].get(name, 0), "bytes" if "bytes" in name else "count")
    counters = first["counters"]
    slopes = counters.get("slopes.slopes_verified", 0)
    loads = counters.get("manifold.maximal_loads", 0)
    new_calls = first["stats"].get("slopes.Slope.new", [0])[0]
    metrics["slopes.Slope.new.per_slope"] = metric(new_calls / slopes if slopes else 0.0, "ratio")
    metrics["cusp.systole_per_maximal_load"] = metric(
        counters.get("cusp.systole_in_load", 0) / loads if loads else 0.0, "ratio"
    )
    untraced, traced = statistics.median(passes[False]), statistics.median(passes[True])
    metrics["trace.untraced_per_s"] = metric(units / untraced, "1/s")
    metrics["trace.traced_per_s"] = metric(units / traced, "1/s")
    metrics["trace.overhead"] = metric(traced / untraced - 1, "ratio")
    metrics["cli.interp_start_ms"] = metric(start_ms, "ms")
    metrics["cli.import_ms"] = metric(import_ms, "ms")

    meta = metadata(args, control)
    meta["passes"] = len(passes[True])
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps({
        "meta": meta,
        "metrics": metrics,
        "span_fields": ["request", "id", "parent", "name", "start", "end", "leaves"],
        "spans": first["spans"],
    }))
    meta["spans_file"] = str(spans_path.relative_to(ROOT))
    return outcome, metrics, meta


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "slopenorm" / "__init__.py").is_file():
        print(f"error: no slopenorm package under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return setup_probe(args)
    wanted = str(hash_seed(args.seed))
    if os.environ.get("PYTHONHASHSEED") != wanted:
        # restart with the hash seed fixed, so the whole run repeats exactly
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": wanted})
    sn = import_library()
    outcome, metrics, meta = (trace if args.trace else measure)(args, sn)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"samples {outcome.attempted} requests, {outcome.failed} failed")
    for problem in outcome.problems[:20]:
        print(f"problem {problem}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
