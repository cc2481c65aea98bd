"""In-memory span recorder for the traced benchmark run, and the per-layer metrics.

While installed, the recorder replaces the public entry points as their
calling modules bind them (`w1clt.harness.generate_batch`,
`.w1_sample_vs_model`, `.generate`, `.tabulate_cdf`, `w1clt.limitlaw.generate`)
and the reference model's `quantile` and `cdf_antiderivative` with wrappers
that record a span per call: name, start, end, parent, thread and the
thread's CPU time.  A span opened on a worker thread with no open span of
its own takes the innermost span open on the recording thread as its
parent, so the harness's pool work nests under the benchmark's `harness`
span.  A handler on the
`w1clt.processes` logger counts orbit reseeds, which exist nowhere else.
Uninstalling restores every original, so untraced runs in the same process
are not slowed.
"""
from __future__ import annotations

import itertools
import json
import logging
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

import w1clt.harness
import w1clt.limitlaw

_MODEL_HOOKS = (("quantile", "models.quantile"),
                ("cdf_antiderivative", "models.cdf_antiderivative"))


def _lane_values(spec, n, n_paths, *args, **kwargs) -> int:
    """Values a generate_batch call computes, burn-in included."""
    return n_paths * (getattr(spec, "burn_in", 0) + n)


@dataclass(slots=True)
class Span:
    id: int
    parent: int  # 0 for a root
    name: str
    thread: int
    start: float
    end: float = 0.0
    cpu: float = 0.0  # CPU seconds of its thread inside the span
    work: int = 0  # lane-values generated, for processes.generate_batch


class NullRecorder:
    """Stands in for a Recorder when the run is untraced."""

    def span(self, name: str):
        return nullcontext()


class _ReseedCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):  # Handler.handle holds self.lock around emit
        if "re-randomized" in record.msg:
            self.count += int(record.args[0])


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.reseeds = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, work: int = 0):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            home = self._home_stack
            parent = home[-1].id if home else 0
        s = Span(next(self._ids), parent, name, threading.get_ident(), 0.0, work=work)
        stack.append(s)
        cpu0 = time.thread_time()
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.cpu = time.thread_time() - cpu0
            stack.pop()
            self.spans.append(s)

    def _wrap(self, name: str, fn, work=None, then=None):
        def wrapper(*args, **kwargs):
            with self.span(name, work(*args, **kwargs) if work else 0):
                result = fn(*args, **kwargs)
            if then:
                then(result)
            return result
        return wrapper

    def _watch(self, model) -> None:
        for attr, name in _MODEL_HOOKS:
            # models are frozen dataclasses; an instance attribute shadows the method
            object.__setattr__(model, attr, self._wrap(name, getattr(model, attr)))

    @staticmethod
    def _unwatch(model) -> None:
        for attr, _ in _MODEL_HOOKS:
            object.__delattr__(model, attr)

    @contextmanager
    def installed(self, reference_models=()):
        hooks = (  # (module, attribute, span name, extra _wrap arguments)
            (w1clt.harness, "generate_batch", "processes.generate_batch",
             {"work": _lane_values}),
            (w1clt.harness, "w1_sample_vs_model", "transport.w1", {}),
            (w1clt.harness, "generate", "processes.calibration", {}),
            # the calibrated CDF becomes the reference, so its calls are watched
            (w1clt.harness, "tabulate_cdf", "processes.calibration", {"then": self._watch}),
            (w1clt.limitlaw, "generate", "processes.covariance_path", {}),
        )
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in hooks]
        for mod, attr, name, extra in hooks:
            setattr(mod, attr, self._wrap(name, getattr(mod, attr), **extra))
        for model in reference_models:
            self._watch(model)
        logger = logging.getLogger("w1clt.processes")
        level, counter = logger.level, _ReseedCounter()
        logger.setLevel(logging.INFO)
        logger.addHandler(counter)
        try:
            yield self
        finally:
            logger.removeHandler(counter)
            logger.setLevel(level)
            self.reseeds += counter.count
            for model in reference_models:
                self._unwatch(model)
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"reseeds": self.reseeds, "spans": [asdict(s) for s in self.spans]}, fh)


def _covered(parent: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals inside the parent's."""
    ivs = sorted((max(c.start, parent.start), min(c.end, parent.end)) for c in children)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, spans: list[Span]) -> float:
    return (span.end - span.start) - _covered(span, [s for s in spans if s.parent == span.id])


PER_LAYER_UNITS = {
    "processes.generate_batch_s": "s",
    "processes.values_per_s": "1/s",
    "processes.calibration_s": "s",
    "processes.covariance_path_s": "s",
    "processes.reseeds": "count",
    "transport.w1_s": "s",
    "transport.w1_rows_per_s": "1/s",
    "models.quantile_calls": "count",
    "models.quantile_s": "s",
    "models.cdf_antiderivative_s": "s",
    "limitlaw.covariance_self_s": "s",
    "limitlaw.covariance_s_per_lag": "s",
    "limitlaw.sample_s": "s",
    "limitlaw.psd_eigenvalues_clipped": "count",
    "limitlaw.psd_jitter": "abs",
    "conditions.check_s": "s",
    "harness.self_s": "s",
    "harness.busy_ratio": "frac",
    "trace.overhead_frac": "frac",
}


def layer_metrics(rec: Recorder, outcome, threads: int) -> dict:
    """Per-layer numbers of one traced run; `trace.overhead_frac` is added by the caller.

    Durations summed over threads are busy time, so the `_per_s` rates are per
    busy thread.  A layer the workload does not use reports 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum((s.end - s.start for s in by_name.get(name, ())), 0.0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    gen_s, w1_s = total("processes.generate_batch"), total("transport.w1")
    w1_rows = len(by_name.get("transport.w1", ()))
    harness = by_name.get("harness", [])
    harness_ids = {s.id for s in harness}
    calibration_in_harness = sum(
        s.end - s.start for s in by_name.get("processes.calibration", ())
        if s.parent in harness_ids
    )
    tn_wall = sum(s.end - s.start for s in harness) - calibration_in_harness
    cov_self = sum((self_time(s, rec.spans) for s in by_name.get("limitlaw.covariance", ())),
                   0.0)
    psd = outcome.covariance.psd_repair if outcome.covariance is not None else None
    # thread CPU time, so a worker waiting for the GIL does not count as busy
    busy = sum(s.cpu for name in ("processes.generate_batch", "transport.w1")
               for s in by_name.get(name, ()))
    return {
        "processes.generate_batch_s": gen_s,
        "processes.values_per_s": rate(
            sum(s.work for s in by_name.get("processes.generate_batch", ())), gen_s),
        "processes.calibration_s": total("processes.calibration"),
        "processes.covariance_path_s": total("processes.covariance_path"),
        "processes.reseeds": rec.reseeds,
        "transport.w1_s": w1_s,
        "transport.w1_rows_per_s": rate(w1_rows, w1_s),
        "models.quantile_calls": len(by_name.get("models.quantile", ())),
        "models.quantile_s": total("models.quantile"),
        "models.cdf_antiderivative_s": total("models.cdf_antiderivative"),
        "limitlaw.covariance_self_s": cov_self,
        # lags 0..L each cost one m x m joint-CDF product
        "limitlaw.covariance_s_per_lag": cov_self / (outcome.lag_cutoff + 1) if cov_self else 0.0,
        "limitlaw.sample_s": total("limitlaw.sample"),
        "limitlaw.psd_eigenvalues_clipped": psd.eigenvalues_clipped if psd else 0,
        "limitlaw.psd_jitter": psd.jitter_added if psd else 0.0,
        "conditions.check_s": total("conditions"),
        "harness.self_s": sum((self_time(s, rec.spans) for s in harness), 0.0),
        "harness.busy_ratio": rate(busy, tn_wall * threads),
    }


def median_metrics(runs: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
