"""End-to-end benchmark of the fibrephi command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One request is one user command driven in-process through
``fibrephi.cli.main``: ``analyze FILE --max-power I --json OUT`` or
``verify-power FILE --i I --json OUT``.  The clock runs from the call to the
returned exit code, which includes loading the setup file.  One client, closed
loop: the next request starts when the previous one returns.  The run repeats
whole passes over the workload's request set (``inputs.workload_pass``) until
``--seconds`` have passed, so every run holds the same mix of requests.

Every report is checked against its expect block with
``fibrephi.cli.compare_expectations``; a wrong verdict ends the run with exit
code 1 and no result.  An inconclusive verdict (exit 2) is not wrong; it lowers
``decided_ratio``.

``--trace 0`` prints the end-to-end metrics.  On a virtual machine shared
with other tenants, CPU speed moves by up to 2x within seconds and from minute
to minute.  So while a timed request runs, an interval timer interrupts it
every 10 ms to time a fixed standard-library loop (``reference_loop``); the
request's latency, less the loop's own time, is divided by the loop's mean
time over the request.  Latencies in ``ref`` units are multiples of that loop.
fibrephi's code cannot change the loop's time, so a faster program still shows
as a smaller number.  The metrics are the median request latency in ``ref``
(the median over request kinds of each kind's median), the median over passes
of a whole pass's latency in ``ref``, set-up time in seconds (process start to
ready for the first request: the median of fresh processes started between
requests throughout the run), peak RSS and the share of requests that exit 0.
Throughput in plain seconds follows as a comment line.

``--trace 1`` alternates untraced and traced passes over the same inputs and
prints the per-layer metrics of ``tracing.py``: counts from the first traced
pass, times in seconds as medians over traced passes, and the tracing
overhead; the spans go to ``.bench_build/perfbench``.  The metric names and
units are those of ``BENCHMARK.json``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
# metric names, units and the default run length
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# set-up is timed in this many fresh processes, spread over the run, and
# reported as their median
SETUP_SAMPLES = 15

# the reference loop is timed this often while a timed request runs, and at
# least MIN_SAMPLES times a request, the missing ones right after it
SAMPLE_PERIOD = 0.01
MIN_SAMPLES = 4

EXIT_OK, EXIT_INCONCLUSIVE = 0, 2

# report fields that an inconclusive run leaves undecided (None)
_DECIDED = {
    "phi_upper": lambda d: d.get("phi_upper"),
    "phi_lower": lambda d: d.get("phi_lower"),
    "phi_exact": lambda d: d.get("phi_exact"),
    "exactness_tag": lambda d: d.get("exactness_tag"),
    "pure": lambda d: d.get("purity", {}).get("pure"),
    "vertical": lambda d: d.get("vertical", {}).get("verdict"),
}


class WrongVerdict(Exception):
    """A report disagrees with its expectation."""


def import_fibrephi():
    """Import fibrephi from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import fibrephi.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import fibrephi from {SRC}: {exc}") from exc
    if not Path(fibrephi.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fibrephi was imported from outside {SRC}")
    return fibrephi.cli


def prepare(workload: str, seed: int):
    """Set-up: import fibrephi and generate the inputs of the first pass."""
    return import_fibrephi(), inputs.workload_pass(workload, seed, 0)


def setup_seconds(workload: str, seed: int) -> float:
    """Process start to ready-for-the-first-request, in a fresh process."""
    start = time.monotonic()
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.split()[-1]) - start


def reference_loop() -> float:
    """Seconds for a fixed loop of exact arithmetic on a small dict of monomials.

    It uses the standard library alone, so no change to fibrephi can make it
    faster or slower; it measures how fast the machine runs at the moment.
    The cyclic garbage collector is off meanwhile, so objects fibrephi keeps
    alive do not slow the loop down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        poly: dict[tuple[int, int, int], Fraction] = {}
        for i in range(1, 60):
            monomial = (i % 7, i % 5, i % 3)
            poly[monomial] = poly.get(monomial, 0) + Fraction(i % 13 + 1, i % 11 + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Times the reference loop from a ``SIGALRM`` handler while a request runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.during = 0.0  # seconds of the samples taken inside the request

    def _sample(self, signum, frame):
        self.samples.append(reference_loop())

    @contextlib.contextmanager
    def sampling(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.during = sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(reference_loop())

    @property
    def unit(self) -> float:
        """Mean time of the reference loop over the last request."""
        return statistics.fmean(self.samples)


def mismatches(cli, document: dict, expect: dict[str, str], code: int) -> list[str]:
    """Wrong verdicts in a report; fields left undecided by exit 2 are not wrong."""
    if code == EXIT_INCONCLUSIVE:
        undecided = {key for key, field in _DECIDED.items() if field(document) is None}
        expect = {key: value for key, value in expect.items() if key not in undecided}
        powers = document.get("fibred_powers", [])
        decided = [p for p in powers if p["verdict"] is not None]
        if "fibred_powers" in expect and len(decided) < len(powers):
            wanted = expect["fibred_powers"].split(",")[: len(decided)]
            document = dict(document, fibred_powers=decided)
            expect = dict(expect, fibred_powers=",".join(wanted))
            if not wanted:
                del expect["fibred_powers"]
    return cli.compare_expectations(document, expect)


class Client:
    """Sends requests one at a time and checks every answer."""

    def __init__(self, cli, workdir: Path, host: HostSpeed | None = None):
        self.cli = cli
        self.workdir = workdir
        self.host = host
        self.attempted = self.failed = self.decided = 0
        self.busy = 0.0  # seconds spent in requests that completed

    def send(self, request, setup_path: Path) -> float | None:
        """Run one request; its latency in seconds, or None when it failed.

        With ``self.host``, the reference loop is timed during the request and
        its time is left out of the latency.
        """
        out = self.workdir / "out.json"
        out.unlink(missing_ok=True)
        argv = request.argv(str(setup_path), str(out))
        self.attempted += 1
        sink = io.StringIO()
        try:
            sampling = self.host.sampling() if self.host else contextlib.nullcontext()
            with sampling, contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                code = self.cli.main(argv)
                latency = time.perf_counter() - start
            if self.host:
                latency -= self.host.during
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if code not in (EXIT_OK, EXIT_INCONCLUSIVE):
            print(f"{request.label}: exit {code}", file=sys.stderr)
            self.failed += 1
            return None
        document = json.loads(out.read_text(encoding="utf-8"))
        wrong = mismatches(self.cli, document, request.expect, code)
        if wrong:
            raise WrongVerdict(f"{request.label}: {'; '.join(wrong)}\ninput:\n{request.text}")
        self.decided += code == EXIT_OK
        self.busy += latency
        return latency


def run_pass(client: Client, requests, index: int, tracer=None, before=None) -> dict[str, float]:
    """Latency of each request of the pass that completed, by request label.

    With ``client.host``, in ``ref`` units instead of seconds.  ``before``, if
    given, is called before each request.
    """
    latencies = {}
    for i, request in enumerate(requests):
        if before is not None:
            before()
        path = client.workdir / f"request{i}.setup"
        path.write_text(request.text, encoding="utf-8")
        if tracer is not None:
            tracer.request = index * len(requests) + i
        latency = client.send(request, path)
        if latency is not None:
            latencies[request.label] = latency / client.host.unit if client.host else latency
    return latencies


def passes(args, first):
    """Whole passes until ``args.seconds`` have gone by; always at least one."""
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < args.seconds:
        yield index, first if index == 0 else inputs.workload_pass(args.workload, args.seed, index)
        index += 1


def timed_run(cli, first, args, workdir: Path):
    """Untraced passes; end-to-end values as ``name -> (value, sample count)``."""
    setups: list[float] = []
    start = time.perf_counter()

    def time_setups():
        # between requests, keeping pace with the run's clock
        due = SETUP_SAMPLES * (time.perf_counter() - start) / args.seconds
        while len(setups) < min(due, SETUP_SAMPLES):
            setups.append(setup_seconds(args.workload, args.seed))

    client = Client(cli, workdir, HostSpeed())
    refs: dict[str, list[float]] = {}
    pass_refs = []
    for index, requests in passes(args, first):
        latencies = run_pass(client, requests, index, before=time_setups)
        for label, latency in latencies.items():
            refs.setdefault(label, []).append(latency)
        if len(latencies) == len(requests):
            pass_refs.append(sum(latencies.values()))
    if not pass_refs:
        raise SystemExit("no pass completed")
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_seconds(args.workload, args.seed))
    done = client.attempted - client.failed

    # The median over request kinds of each kind's median: pooled over a pass
    # with an even number of kinds, the median falls in the gap between two
    # kinds and follows their extreme samples.
    latency = statistics.median(statistics.median(v) for v in refs.values())
    values = {
        "latency_p50_ref": (latency, done),
        "pass_p50_ref": (statistics.median(pass_refs), len(pass_refs)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "decided_ratio": (client.decided / client.attempted, client.attempted),
    }
    print(f"# analyses_per_s = {done / client.busy:.6g} 1/s (n={done}), not host-corrected")
    return client, values, index + 1


def traced_run(cli, first, args, workdir: Path):
    """Untraced and traced passes in turn over the same inputs; per-layer values.

    Counts come from the first traced pass, times are medians over traced
    passes, and ``trace.overhead_ratio`` compares traced with untraced time.
    """
    import tracing

    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    tracer = tracing.Tracer()
    client = Client(cli, workdir)
    per_pass: list[dict] = []
    plain = traced = 0.0
    for index, requests in passes(args, first):
        plain += sum(run_pass(client, requests, index).values())
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced += sum(run_pass(client, requests, index, tracer).values())
        finally:
            tracer.uninstall()
        per_pass.append(tracing.layer_metrics(tracer.spans[first_span:], first_span))
        for span in tracer.spans[first_span:]:
            span[5] = None  # the basis keys hold every input ideal alive
        moved = [name for name in counts if per_pass[-1][name] != per_pass[0][name]]
        if moved:
            print(f"warning: counts of pass {index} differ from pass 0: {moved}", file=sys.stderr)
    tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")

    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values.update({name: per_pass[0][name] for name in counts})
    values["trace.overhead_ratio"] = traced / plain - 1 if plain else 0.0
    return client, {name: (value, len(per_pass)) for name, value in values.items()}, index + 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        prepare(args.workload, args.seed)
        print(time.monotonic())
        return 0

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, first = prepare(args.workload, args.seed)
        run = traced_run if args.trace else timed_run
        client, values, passes_run = run(cli, first, args, workdir)
    except WrongVerdict as exc:
        print(f"wrong verdict: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for spec in SPEC["per_layer" if args.trace else "end_to_end"]:
        value, samples = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"# {spec['name']} = {value:.6g} {spec['unit']} (n={samples})")
    print(f"# {args.workload}: {passes_run} passes, {client.attempted} requests")
    result = {"correct": True, "attempted": client.attempted, "failed": client.failed}
    print(json.dumps(dict(result, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
