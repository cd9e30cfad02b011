"""Known failures of the library at the seed state, and the verdict built on them.

A failing request is recorded as (family, kind): the family names the input
family at the grain the checks use (``sum.cdf.erlang``, ``curve.order.pdf``,
``g=0.002``), the kind names how it failed (``z=0``, ``z>0``,
``quantile residual``, an exception type, a failing ``check`` name).

``baseline.json`` lists, per workload, every (family, kind) seen failing in
the runs it was measured from, with the number of failures and the number
of requests of that family.  A run is judged correct when no kind fails more
often than its measured rate allows (see ``allowed_failures``).  A kind never
seen in R recorded requests of its family has a rate below about 3/R; where
that bound is at most ``RARE_RATE`` the kind is judged at it, so that a rare
defect the recorded runs missed does not fail a run, while a family that
now fails much more often, or any new failure of a family with fewer
recorded requests, makes the run incorrect.

Record a new baseline from the per-run failure files that ``run.py`` writes
to ``.bench_out/``:

    python3 benchmarks/baseline.py .bench_out/failures-*.json
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(BENCH_DIR, "baseline.json")

# Chance that a run whose failures occur at the recorded rate is judged incorrect.
FALSE_ALARM = 1e-6
# Failures that are a test's own false alarms, not defects: the KS tests of
# the `check` command run at level 0.01, so each fails about once in a
# hundred calls whatever the library does.  A kind listed here may fail at
# that level even where the baseline runs never saw it fail.
CHANCE = {"cli": {"check": {"min_ks": 0.01, "max_ks": 0.01}}}
RARE_RATE = 0.01


def load(workload: str) -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def upper_rate(failed: int, requests: int) -> float:
    """An upper bound on a failure rate seen failed times in requests tries."""
    return min(1.0, (failed + 3.0 * math.sqrt(failed) + 3.0) / requests)


def allowed_failures(rate: float, requests: int) -> int:
    """Smallest k with P(Binomial(requests, rate) > k) <= FALSE_ALARM."""
    tail = 1.0
    for k in range(requests + 1):
        tail -= math.comb(requests, k) * rate**k * (1.0 - rate) ** (requests - k)
        if tail <= FALSE_ALARM:
            return k
    return requests


def verdict(workload: str, failures: dict, family_requests: dict) -> list[tuple[str, str, str]]:
    """(family, kind, reason) for each kind the record does not explain; empty when every
    failure is known and within its rate.

    ``failures`` maps family -> kind -> list of failure details,
    ``family_requests`` maps family -> requests of that family in the run.
    """
    recorded = load(workload)
    known = recorded["failures"]
    problems = []
    for family, kinds in sorted(failures.items()):
        for kind, details in sorted(kinds.items()):
            record = known.get(family, {}).get(kind)
            if record is not None:
                rate = upper_rate(record["failed"], record["requests"])
            else:
                rate = upper_rate(0, recorded["family_requests"].get(family, 0) or 1)
                if rate > RARE_RATE:
                    rate = 0.0
            rate = max(rate, CHANCE.get(workload, {}).get(family, {}).get(kind, 0.0))
            n = family_requests[family]
            limit = allowed_failures(rate, n)
            if len(details) > limit:
                size, detail = details[0]
                new = "new " if record is None else ""
                reason = f"{new}failure {family} / {kind}: {len(details)} of {n}, more than the {limit} allowed (N={size}: {detail})"
                problems.append((family, kind, reason))
    return problems


def record(paths: list[str]) -> dict:
    """Aggregate per-run failure files into the baseline.json structure."""
    runs = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        runs[run["workload"]].append(run)
    out = {}
    for workload, items in sorted(runs.items()):
        requests = defaultdict(int)
        for run in items:
            for family, n in run["family_requests"].items():
                requests[family] += n
        failures = defaultdict(dict)
        for run in items:
            for family, kinds in run["failures"].items():
                for kind, details in kinds.items():
                    entry = failures[family].setdefault(
                        kind, {"failed": 0, "requests": requests[family], "runs_with_failures": 0, "rate_counts": set(), "example": details[0][1]}
                    )
                    entry["failed"] += len(details)
                    entry["runs_with_failures"] += 1
                    entry["rate_counts"].update(n for n, _ in details)
        for kinds in failures.values():
            for entry in kinds.values():
                entry["rate_counts"] = sorted(entry["rate_counts"])
        rates = sorted(run["failed"] / run["attempted"] for run in items)
        out[workload] = {
            "runs": len(items),
            "seeds": sorted(run["seed"] for run in items),
            "attempted": sum(run["attempted"] for run in items),
            "failed": sum(run["failed"] for run in items),
            "error_rate": {"median": rates[len(rates) // 2], "min": rates[0], "max": rates[-1]},
            "family_requests": dict(sorted(requests.items())),
            "failures": {family: dict(sorted(kinds.items())) for family, kinds in sorted(failures.items())},
        }
    return out


def main(paths: list[str]) -> int:
    import platform

    import numpy
    import scipy

    about = (
        "Failures of the library at the commit that introduced the benchmark, as measured. "
        "Per workload: the runs it was recorded from, error_rate (failed / attempted requests per run), "
        "and for each failing (family, kind) the failures, the requests of that family, the runs it "
        "failed in, the rate counts N it failed at and one example. See baseline.py for the verdict."
    )
    versions = f"Python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}"
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump({"about": about, "measured_with": versions, "workloads": record(paths)}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
