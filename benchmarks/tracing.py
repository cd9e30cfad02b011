"""Spans and counters recorded from outside the library.

``Tracer`` wraps the public functions listed in ``LAYERS`` at every module
attribute of the loaded ``expstat`` package that binds them, so a call made
through ``expstat.cli.conv_pdf`` is recorded as well as one through
``expstat.convolution.conv_pdf``.  ``RateVector`` is a class; its
``__post_init__`` is wrapped instead, so ``isinstance`` checks still see the
class.  No library file is modified: ``install`` swaps module attributes
and ``uninstall`` puts the originals back.

Each span is kept in memory as (name, start, end, parent, request id) and
written out by ``save``.  Self time is a span's duration minus the durations
of its direct children.  Alongside the spans the tracer keeps four counters
measured at the same boundaries:

* ``convolution.expm.calls``: calls of ``scipy.linalg.expm`` as bound in
  ``expstat.convolution``;
* ``core.gammainc.elements``: broadcast elements passed to
  ``scipy.special.gammainc`` as bound in ``expstat.core``;
* ``core.grid_term_points``: sum of terms x points over the grid kernels
  ``mixture_eval_grid`` and ``mixture_cdf_grid``;
* ``core.grid_bytes_computed``: 8 bytes per term-point, the size of one
  float64 terms x points array, computed from the count rather than measured.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "core": (
        "RateVector",
        "mixture_eval",
        "mixture_eval_grid",
        "mixture_cdf",
        "mixture_cdf_grid",
        "mixture_quantile",
        "mixture_moment",
    ),
    "convolution": (
        "conv_mixture",
        "conv_pdf",
        "conv_cdf",
        "conv_quantile",
        "conv_pdf_phase_type",
        "conv_moments",
    ),
    "orderstats": (
        "max_mixture",
        "max_pdf",
        "max_cdf",
        "order_statistic_cdf",
        "order_statistic_pdf",
        "min_law",
    ),
    "montecarlo": (
        "sample_sum",
        "sample_min",
        "sample_max",
        "sample_order",
        "sample_min_range_pairs",
        "ks_test",
        "factorization_test",
    ),
    "quadrature": ("sum_pdf_quadrature",),
    "cli": ("cmd_curve", "cmd_sample", "cmd_check"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
COUNTERS = (
    "convolution.expm.calls",
    "core.gammainc.elements",
    "core.grid_term_points",
    "core.grid_bytes_computed",
)
GRID_KERNELS = ("core.mixture_eval_grid", "core.mixture_cdf_grid")
ROOT = "request"


class Tracer:
    """Span recorder plus the wrappers that feed it; one per process."""

    def __init__(self) -> None:
        self.names = [ROOT, *SPAN_NAMES]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.child_time = array("d")
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.errors = {name: 0 for name in SPAN_NAMES}
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._request_id = -1
        self._last_root = -1
        self._swaps: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._index[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(0.0)
        self.child_time.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str, failed: bool) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        duration = t - self.start[idx]
        parent = self.parent[idx]
        if parent >= 0:
            self.child_time[parent] += duration
        if name != ROOT:
            self.calls[name] += 1
            self.self_s[name] += duration - self.child_time[idx]
            if failed:
                self.errors[name] += 1
        return duration

    def run_request(self, request_id: int, fn, *args):
        """Run fn(*args) as the root span of one request.

        Returns (result, exception or None, seconds); the exception is caught
        so that a failing request still closes its span.
        """
        self._request_id = request_id
        idx = self._open(ROOT)
        self._last_root = idx
        result, error = None, None
        try:
            result = fn(*args)
        except Exception as exc:  # a failing request is data, not a benchmark error
            error = exc
        finally:
            duration = self._close(idx, ROOT, False)
        return result, error, duration

    def _wrap(self, name: str, fn):
        grid_kernel = name in GRID_KERNELS
        counters = self.counters

        def wrapper(*args, **kwargs):
            if grid_kernel:
                term_points = args[0].n_terms * int(np.size(args[1]))
                counters["core.grid_term_points"] += term_points
                counters["core.grid_bytes_computed"] += 8 * term_points
            idx = self._open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._close(idx, name, failed)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------------

    def prepare(self) -> None:
        """Find every binding of a listed function in the loaded expstat modules."""
        import expstat.convolution as convolution
        import expstat.core as core

        modules = [m for key, m in sorted(sys.modules.items()) if key == "expstat" or key.startswith("expstat.")]
        targets = {}
        for layer, fns in LAYERS.items():
            home = sys.modules[f"expstat.{layer}"]
            for fn in fns:
                targets[id(getattr(home, fn))] = f"{layer}.{fn}"
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = targets.get(id(value))
                if name is None or name == "core.RateVector":
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._swaps.append((module, attr, value, wrappers[name]))
        rate_vector = core.RateVector
        post_init = rate_vector.__dict__["__post_init__"]
        self._swaps.append((rate_vector, "__post_init__", post_init, self._wrap("core.RateVector", post_init)))
        expm = convolution.expm
        self._swaps.append((convolution, "expm", expm, self._counting(expm, "convolution.expm.calls", None)))
        gammainc = core.gammainc
        self._swaps.append((core, "gammainc", gammainc, self._counting(gammainc, "core.gammainc.elements", _broadcast_size)))
        missing = set(SPAN_NAMES) - set(wrappers) - {"core.RateVector"}
        if missing:
            raise RuntimeError(f"listed functions not found in expstat: {sorted(missing)}")

    def _counting(self, fn, counter: str, measure):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1 if measure is None else measure(*args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def bindings(self) -> list[str]:
        """Qualified attribute names that install() rebinds (for inspection and tests)."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in self._swaps]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def merge(self, summary: dict) -> None:
        """Add the per-name totals and counters written by a traced child process."""
        for name in SPAN_NAMES:
            self.calls[name] += summary["calls"][name]
            self.self_s[name] += summary["self_s"][name]
            self.errors[name] += summary["errors"][name]
        for name in COUNTERS:
            self.counters[name] += summary["counters"][name]

    def absorb(self, path: str) -> None:
        """Append the spans a traced child process saved, under the current request's root.

        The child's own root span is dropped; its top-level spans become
        children of the root span that timed the child process.
        """
        root = self._last_root
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            self.merge(header)
            mapping = {}
            for child_idx, line in enumerate(fh):
                name, start, end, parent, _ = json.loads(line)
                if name == ROOT:
                    mapping[child_idx] = root
                    continue
                parent_idx = mapping.get(parent, root)
                self.child_time[parent_idx] += end - start
                mapping[child_idx] = len(self.start)
                self.name_id.append(self._index[name])
                self.start.append(start)
                self.end.append(end)
                self.parent.append(parent_idx)
                self.request.append(self.request[root])
                self.child_time.append(0.0)

    def check_spans(self) -> list[str]:
        """Problems found in the recorded intervals alone, without the running totals.

        Every span must be closed and lie inside its parent, spans with one
        parent must not overlap, and each name's self time recomputed from
        the intervals (duration minus the children's durations) must equal
        the total kept while tracing.  Together these make the self times of
        a request's spans add up to its root span's duration.
        """
        problems = []
        children: dict[int, list[int]] = {}
        recomputed = {name: 0.0 for name in SPAN_NAMES}
        for i in range(len(self.start)):
            if self.end[i] < self.start[i] or self.end[i] == 0.0:
                problems.append(f"span {i} ({self.names[self.name_id[i]]}) not closed")
            children.setdefault(self.parent[i], []).append(i)
        for parent, kids in children.items():
            kids.sort(key=lambda i: self.start[i])
            for a, b in zip(kids, kids[1:]):
                if self.start[b] < self.end[a]:
                    problems.append(f"spans {a} and {b} overlap under parent {parent}")
            if parent < 0:
                continue
            if self.start[kids[0]] < self.start[parent] or max(self.end[k] for k in kids) > self.end[parent]:
                problems.append(f"a child of span {parent} lies outside it")
            if self.request[parent] != self.request[kids[0]]:
                problems.append(f"span {kids[0]} and its parent belong to different requests")
        for i in range(len(self.start)):
            name = self.names[self.name_id[i]]
            if name != ROOT:
                covered = sum(self.end[k] - self.start[k] for k in children.get(i, ()))
                recomputed[name] += self.end[i] - self.start[i] - covered
        for name, value in recomputed.items():
            if abs(value - self.self_s[name]) > 1e-9 * (1 + self.calls[name]):
                problems.append(f"{name}: self time {self.self_s[name]!r} s, intervals give {value!r} s")
        return problems

    def summary(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "errors": self.errors, "counters": self.counters}

    def save(self, path: str) -> None:
        """Write the spans as JSON lines: one header, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"], **self.summary()}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f'["{names[self.name_id[i]]}",{self.start[i]!r},{self.end[i]!r},'
                    f"{self.parent[i]},{self.request[i]}]\n"
                )


def _broadcast_size(*args) -> int:
    return int(np.broadcast(*args).size)
