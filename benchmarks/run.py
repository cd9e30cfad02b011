"""expstat benchmark: one workload per run, closed loop, one client.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` next to this directory; the benchmark
refuses to run (exit status 2, no result line) when it is missing.  Inputs
come from ``--seed`` alone.  Requests run back to back in whole cycles of
request kinds (``workloads.CYCLES``) until ``--seconds`` of request time,
scaled to the reference speed (below), have been measured at the end of a
cycle; so a run's count of cycles, and with it the mix of request kinds
behind each percentile, does not follow the speed of the machine.  Each
request is checked afterwards against the mpmath reference in
``oracle.py``, outside the timed region.

Workloads (see ``workloads.py`` for the generators):

* ``grid_curves``: 4001-point pdf/cdf curves of the sum, min, max and r-th
  order statistic through the library path behind ``expstat curve``, N from
  2 to 12, log-uniform rates or exact repeats.  The core grid kernels, the
  per-point order-statistic loops and the 2^N-term maximum carry the time.
* ``near_equal``: 401-point sum pdf/cdf curves and 19-level quantile sweeps
  on equally spaced rates (1+g)^i, g in {1e-4, 5e-4, 1.1e-3, 2e-3, 1e-2},
  N from 3 to 8, plus exact-repeat clusters next to near-equal chains.  The
  only workload where the phase-type route and both quantile solvers carry
  the time, and where the closed form's loss of accuracy shows.
* ``validate``: seeded draws (1e5 for sum, min and max, 1e4 for order, 2e5
  min/range pairs at N=2) followed by a KS or factorization test.  Samplers
  and the RNG carry the time; the sum cdf kernel runs with few terms on 1e5
  points, the opposite shape to grid_curves.
* ``cli``: cold ``python -m expstat curve | sample | check`` processes.
  Interpreter start and import dominate; CSV formatting and the quadrature
  oracle run only here.

Times are wall-clock times scaled to a reference machine speed.  On the
shared two-CPU virtual machine this benchmark was written on, the speed of
the guest swings by 30% within a second and drifts by tens of percent over
minutes, and CPU time (``time.process_time``) swings with it, so neither
raw measure compares runs made at different times.  Between requests the
benchmark therefore times a fixed calibration loop (``Calibration``), for
about a tenth of the request's time, and multiplies a request's time by
``CAL_REFERENCE_S`` over the mean calibration time just before and just
after it.  Scaling cut the spread of throughput over seeds from about
0.15-0.27 to 0.03-0.09 (IQR over median) on the in-process workloads.  A
cold ``cli`` process spends its time starting the interpreter and loading
modules, may run on the other CPU, and its speed did not follow the
calibration loop: scaled by the run's median calibration its spreads over
ten seeds were 0.03-0.13, unscaled 0.04-0.07.  ``cli`` times are therefore
reported unscaled.

End-to-end metrics (``--trace 0``), all measured with tracing off:

* ``throughput_rps``: requests completed per second of request time;
* ``latency_p50_ms``: median request time;
* ``latency_tail_ms``: the highest percentile with at least ten samples
  beyond it (the percentile and the counts are printed with it); when fewer
  than 100 requests ran, as on ``cli``, at least a tenth of them beyond it;
* ``success_rate``: 1 - error_rate, the share of requests that returned an
  answer within budget (``error_rate`` itself is printed, and is 0 on some
  workloads, so the gated metric is its complement);
* ``peak_rss_mb``: peak resident memory of this process and its children;
* ``setup_s``: median over three fresh processes of ``import expstat`` plus
  warm-up of the workload's code paths, without reference computation,
  each scaled by a calibration taken in the same process.

The benchmark and its child processes run BLAS single-threaded (see the
comment at the top of the code).

Per-layer metrics (``--trace 1``): each request runs twice, untraced and
traced, in alternating order.  The traced copy records spans around every
listed public function (``tracing.py``); the ``cli`` workload runs its
traced copy through ``cli_child.py``.  Reported per function are
``<layer>.<fn>.calls``, ``.self_s`` and ``.errors``, the counters
``convolution.expm.calls``, ``core.gammainc.elements``,
``core.grid_term_points`` and ``core.grid_bytes_computed``, import times
from ``python -X importtime`` in the setup probes, scaled like ``setup_s``
(``import.expstat_s``, ``import.scipy_s``),
``trace.overhead_share`` (traced over untraced request time, minus one) and
``trace.layer_self_share`` (the part of traced request time inside listed
functions).  Spans are written to ``.bench_out/`` at the repository root.

``correct`` in the result line is true when ``baseline.verdict`` accepts the
run's failures (every failing request fails in a way recorded for its family
at the seed state, no more often than recorded), the traced and untraced
copies of each request gave identical outputs, and the recorded spans pass
``Tracer.check_spans``.

The library at the commit that introduced this benchmark gives wrong answers
or raises on known input families (``baseline.json``); they stay in the
workloads and show in ``error_rate`` and ``success_rate``, which count every
request that raised or was off the reference.  ``failed`` in the result line
counts the requests whose failure the record does not explain: those of
every (family, kind) that ``baseline.verdict`` rejects.  It is 0 at the seed
state whatever the seed and run length, so two sets of runs of the same code
agree on it, and a change that breaks a path shows in it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

# One BLAS thread for this process and every child it starts.  The library's
# matrices are at most N x N with N <= 12, too small for a threaded BLAS to
# help, and on a shared two-CPU machine a threaded pool that competes with
# other load made the same expm calls two to four times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 3
TAIL_BEYOND = 10
# Seconds the calibration loop takes on an idle 2-vCPU Xeon virtual machine
# at 2.0 GHz (Python 3.11, numpy 2.4); scaled times are seconds at that speed.
CAL_REFERENCE_S = 0.005
# Calibration time taken after each request, as a share of the request's time.
CAL_SHARE = 0.1
PROBE_CALIBRATIONS = 9
# A run stops at the end of a cycle once its scaled request time reaches
# --seconds, or once this many times --seconds of wall time have passed.
WALL_LIMIT = 1.5


class Calibration:
    """A fixed mix of interpreter, numpy and small linear-algebra work, timed on demand."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._x = rng.random(20_000)
        self._a = rng.random((12, 12)) + 12.0 * np.eye(12)
        self._b = rng.random(12)
        self.samples: list[float] = []

    def sample(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0.0
        for k in range(10):
            acc += float(np.exp(-(1.0 + k) * self._x).sum())
        for _ in range(100):
            acc += float(np.linalg.solve(self._a, self._b)[0])
        total = 0
        for k in range(30_000):
            total += k * k % 7
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def fill(self, seconds: float) -> list[float]:
        """Take samples until they add up to at least `seconds` (at least one sample)."""
        taken = [self.sample()]
        while sum(taken) < seconds:
            taken.append(self.sample())
        return taken

    def scale(self) -> float:
        """Factor from wall time to time at the reference speed, by the median sample."""
        return CAL_REFERENCE_S / statistics.median(self.samples)


def import_library():
    """Import expstat from this checkout's src/ or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "expstat", "__init__.py")):
        print(f"benchmark: no expstat sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import expstat

    if not os.path.abspath(expstat.__file__).startswith(SRC + os.sep):
        print(f"benchmark: expstat imported from {expstat.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return expstat


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds for `import expstat` (cumulative) and for scipy modules (sum of self times)."""
    expstat_us = None
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:") :].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
        if name == "expstat":
            expstat_us = cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    if expstat_us is None:
        raise RuntimeError("no `import expstat` entry in the -X importtime report")
    return {"import.expstat_s": expstat_us * 1e-6, "import.scipy_s": scipy_us * 1e-6}


def probe_setup(workload: str) -> None:
    """Child side of the setup measurement: import plus warm-up, then a calibration, printed as JSON."""
    start = time.perf_counter()
    import_library()
    imported = time.perf_counter() - start
    import workloads

    start = time.perf_counter()
    workloads.warm_up(workload)
    setup = imported + time.perf_counter() - start
    calibration = Calibration()
    for _ in range(PROBE_CALIBRATIONS):
        calibration.sample()
    print(json.dumps({"setup_s": setup, "scale": calibration.scale()}))


def measure_setup(workload: str, importtime: bool) -> tuple[list[float], list[dict]]:
    """Scaled setup times of fresh processes, and their -X importtime figures when asked."""
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), __file__, "--probe-setup", workload]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(probe["setup_s"] * probe["scale"])
        if importtime:
            imports.append({name: t * probe["scale"] for name, t in parse_importtime(proc.stderr).items()})
    return setups, imports


def same_output(a, b) -> bool:
    """Bit-for-bit equality of two request outputs (arrays, batches, reports, tuples)."""
    import numpy as np

    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, (tuple, list)):
        return isinstance(b, (tuple, list)) and len(a) == len(b) and all(same_output(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)
    if hasattr(a, "values") and hasattr(b, "values"):
        return same_output(a.values, b.values)
    return a == b


def execute(call):
    start = time.perf_counter()
    try:
        return call(), None, time.perf_counter() - start
    except Exception as exc:  # a failing request is data, not a benchmark error
        return None, exc, time.perf_counter() - start


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with TAIL_BEYOND samples above it.

    Below 10 * TAIL_BEYOND samples that percentile would sink under p90, to
    p44 for the 18 requests of a ``cli`` run; there a tenth of the samples,
    rounded up, lie beyond it instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - min(TAIL_BEYOND, math.ceil(n / 10)) - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(args) -> dict:
    # setup is measured in fresh processes before this one imports anything heavy
    started = time.perf_counter()
    setups, imports = measure_setup(args.workload, importtime=bool(args.trace))
    phases = {"setup probes": time.perf_counter() - started}
    import tracing
    import workloads

    if args.workload != "cli":
        workloads.warm_up(args.workload)
    calibration = Calibration()
    before = calibration.fill(0.02)[-2:]
    generate = workloads.WORKLOADS[args.workload]
    cycle = workloads.CYCLES[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.prepare()
        os.makedirs(OUT_DIR, exist_ok=True)
    child_spans = os.path.join(OUT_DIR, f"child-{os.getpid()}.jsonl")

    pending = []
    latencies, traced_latencies, scales = [], [], []
    mismatches = 0
    loop_start = time.perf_counter()
    phases["import and warm-up"] = loop_start - started - phases["setup probes"]
    wall_limit = loop_start + WALL_LIMIT * args.seconds
    measured = 0.0  # request time so far, scaled to the reference speed
    index = 0
    while index % cycle or (measured < args.seconds and time.perf_counter() < wall_limit):
        req = generate(args.seed, index)
        if tracer is None:
            out, error, seconds = execute(req.call)
            spent = seconds
        else:
            for traced in (False, True) if index % 2 == 0 else (True, False):
                if not traced:
                    out, error, seconds = execute(req.call)
                    continue
                call = (lambda: req.call(child_spans)) if req.subprocess else req.call
                tracer.install()
                try:
                    traced_out, traced_error, traced_seconds = tracer.run_request(index, call)
                finally:
                    tracer.uninstall()
                if req.subprocess:
                    tracer.absorb(child_spans)
                    traced_out = traced_out[:2]
            traced_latencies.append(traced_seconds)
            plain = out[:2] if req.subprocess and out is not None else out
            if not same_output(error or plain, traced_error or traced_out):
                mismatches += 1
            spent = seconds + traced_seconds
        if req.subprocess:
            scales.append(1.0)
        else:
            after = calibration.fill(CAL_SHARE * spent)
            scales.append(CAL_REFERENCE_S / statistics.mean(before + after))
            before = after
        measured += spent * scales[-1]
        latencies.append(seconds)
        if error is not None:
            pending.append((req, [(type(error).__name__, str(error))], None))
        else:
            pending.append((req, None, req.reduce(out)))
        index += 1
    if os.path.exists(child_spans):
        os.remove(child_spans)

    checks_start = time.perf_counter()
    phases["timed loop"] = checks_start - loop_start
    failures = {}
    for req, error, record in pending:
        for kind, detail in error or req.check(record):
            cases = failures.setdefault(req.family, {}).setdefault(kind, [])
            if not cases or cases[-1][2] != req.index:
                cases.append((req.size, detail, req.index))
    phases["reference checks"] = time.perf_counter() - checks_start
    return {
        "phases": phases,
        "latencies": latencies,
        "traced_latencies": traced_latencies,
        "scales": scales,
        "calibrations": len(calibration.samples),
        "setups": setups,
        "imports": imports,
        "failures": {family: {kind: [c[:2] for c in cases] for kind, cases in kinds.items()} for family, kinds in failures.items()},
        "failing": {(family, kind): {c[2] for c in cases} for family, kinds in failures.items() for kind, cases in kinds.items()},
        "attempted": len(pending),
        "family_requests": dict(Counter(req.family for req, _, _ in pending)),
        "mismatches": mismatches,
        "tracer": tracer,
    }


def report(args, result: dict) -> dict:
    import baseline

    attempted = result["attempted"]
    erring = len(set().union(*result["failing"].values()))
    print(f"workload {args.workload} seed {args.seed}: {attempted} requests, {erring} off the reference or raising")
    for family, kinds in sorted(result["failures"].items()):
        total = result["family_requests"][family]
        for kind, cases in sorted(kinds.items()):
            sizes = ",".join(str(n) for n in sorted({n for n, _ in cases}))
            print(f"  failing {family} / {kind}: {len(cases)} of {total}, N in {{{sizes}}} (first: N={cases[0][0]}, {cases[0][1]})")
    problems = baseline.verdict(args.workload, result["failures"], result["family_requests"])
    for _, _, reason in problems:
        print(f"  NOT CORRECT: {reason}")
    # requests whose failure the seed-state record does not explain
    failed = len(set().union(*(result["failing"][family, kind] for family, kind, _ in problems)))
    print(f"  failed beyond the seed-state record: {failed} of {attempted}")
    correct = not problems and result["mismatches"] == 0
    print("  wall time: " + ", ".join(f"{name} {seconds:.1f} s" for name, seconds in result["phases"].items()))
    scale = statistics.median(result["scales"])
    print(f"  calibration: {result['calibrations']} samples, median request time scaled by {scale:.4f}")

    metrics = {}
    if not args.trace:
        lat = [t * k for t, k in zip(result["latencies"], result["scales"])]
        tail, pct, beyond = tail_latency(lat)
        metrics = {
            "throughput_rps": (attempted / sum(lat), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": (tail * 1e3, "ms"),
            "success_rate": ((attempted - erring) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (statistics.median(result["setups"]), "s"),
        }
        raw = result["latencies"]
        print(f"  unscaled wall-clock times: throughput {attempted / sum(raw):.4f} 1/s, p50 {statistics.median(raw) * 1e3:.3f} ms")
        print(f"  error_rate {erring / attempted!r} ratio ({erring} of {attempted})")
        print(f"  latency_tail_ms is p{pct:.2f} of {attempted} requests, {beyond} beyond it")
        print(f"  setup_s samples {result['setups']}")
        os.makedirs(OUT_DIR, exist_ok=True)
        record = {key: result[key] for key in ("failures", "family_requests", "attempted")}
        with open(os.path.join(OUT_DIR, f"failures-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, **record, "failed": erring}, fh)
    else:
        tracer = result["tracer"]
        import tracing

        for name in tracing.SPAN_NAMES:
            metrics[f"{name}.calls"] = (tracer.calls[name], "count")
            metrics[f"{name}.self_s"] = (tracer.self_s[name] * scale, "s")
            metrics[f"{name}.errors"] = (tracer.errors[name], "count")
        for name in tracing.COUNTERS:
            metrics[name] = (tracer.counters[name], "bytes_computed" if name.endswith("bytes_computed") else "count")
        for name in ("import.expstat_s", "import.scipy_s"):
            metrics[name] = (statistics.median(sample[name] for sample in result["imports"]), "s")
        traced, untraced = sum(result["traced_latencies"]), sum(result["latencies"])
        layer_self = sum(tracer.self_s.values())
        metrics["trace.overhead_share"] = (traced / untraced - 1.0, "ratio")
        metrics["trace.layer_self_share"] = (layer_self / traced, "ratio")
        span_problems = tracer.check_spans()
        print(
            f"  traced request time {traced:.6f} s = listed-function self time {layer_self:.6f} s"
            f" + time outside them {traced - layer_self:.6f} s; untraced {untraced:.6f} s,"
            f" tracing overhead {100.0 * (traced / untraced - 1.0):.2f}% (unscaled)"
        )
        for problem in span_problems[:20]:
            print(f"  span check: {problem}")
        if result["mismatches"]:
            print(f"  {result['mismatches']} requests gave different outputs traced and untraced")
        correct = correct and not span_problems
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.save(path)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        if not args.trace or value:
            print(f"  {name} {value!r} {unit}")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("grid_curves", "near_equal", "validate", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    import_library()
    result = report(args, run(args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
