"""Layer spans and memory probes, installed from outside the program.

A layer is a public jungckit function or method.  To trace it, the wrapper
replaces the name in every jungckit namespace that binds the same object
(``scan`` calls ``certify`` through its own module globals, ``cli`` calls
``engine.run`` through the ``engine`` module, ``engine.run`` calls
``cfg.pair.solve`` through the ``OperatorPair`` class), so every caller's
lookup goes through the wrapper.  Wrappers are removed again after each
traced block, so untraced blocks run the program unmodified.  A name that
does not exist at the measured commit is reported as missing.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _count_gates(counts, args, result):
    gates = result[1]
    counts["aitken.components"] += int(gates.size)
    counts["aitken.gates_on"] += int(np.count_nonzero(gates))


def _count_rows(counts, args, result):
    counts["engine.rows"] += int(result.n_raw)
    counts["engine.truncated"] += int(bool(result.diverged))


def _count_powers(counts, args, result):
    counts["stability.powers"] += int(np.count_nonzero(np.isfinite(result)))


def _count_venter(counts, args, result):
    counts["venter.steps"] += int(result.steps)


def _count_scan(counts, args, result):
    counts["scan.configs"] += len(result.outcomes)
    counts["scan.certified"] += int(result.certified_count)
    counts["scan.violations"] += len(result.violations)


def _count_csv(counts, args, result):
    counts["cli.csv_bytes"] += Path(args[-1]).stat().st_size


#: (layer name, "module:attribute.path" targets, result hook)
LAYERS = (
    ("aitken.accelerate_sequence", ("aitken:accelerate_sequence",), _count_gates),
    ("engine.run", ("engine:run",), _count_rows),
    ("engine.identity_residuals", ("engine:identity_residuals",), None),
    ("engine.PowerCache.apply", ("engine:PowerCache.apply",), None),
    ("model.OperatorPair.solve", ("model:OperatorPair.solve",), None),
    ("model.Schedule.array", ("model:Schedule.array",), None),
    ("model.make_operator_pair", ("model:make_operator_pair",), None),
    ("stability.certify", ("stability:certify",), None),
    ("stability.power_norms", ("stability:power_norms",), _count_powers),
    ("stability.cross_validate", ("stability:cross_validate",), None),
    ("diagnostics.estimate_limit", ("diagnostics:estimate_limit",), None),
    ("diagnostics.acceleration_ratio", ("diagnostics:acceleration_ratio",), None),
    ("diagnostics.sequences_equivalent", ("diagnostics:sequences_equivalent",), None),
    ("diagnostics.limit_identity_residuals", ("diagnostics:limit_identity_residuals",), None),
    ("diagnostics.build_convergence_report", ("diagnostics:build_convergence_report",), None),
    ("venter.venter_run", ("venter:venter_run",), _count_venter),
    ("venter.verify_summability", ("venter:verify_summability",), None),
    ("venter.verify_property_i", ("venter:verify_property_i",), None),
    ("venter.verify_property_iv", ("venter:verify_property_iv",), None),
    ("scan.run_scan", ("scan:run_scan",), _count_scan),
    ("cli.parse_config_text", ("cli:parse_config_text",), None),
    ("cli.write_csv", ("cli:write_jungck_csv", "cli:write_venter_csv",
                       "cli:write_aitken_csv", "cli:write_scan_csv"), _count_csv),
)

#: layers whose tracemalloc peak the memory pass reports
PEAK_LAYERS = (("engine.run", "engine:run"), ("stability.certify", "stability:certify"))

#: the benchmark's own span around each operation
OP = "op"

COUNTERS = ("aitken.components", "engine.rows", "engine.truncated", "stability.powers",
            "venter.steps", "scan.configs", "scan.violations", "cli.csv_bytes",
            "cli.checks", "cli.checks_failed")


def _resolve(target: str):
    """Return (owner, attribute, original) for a target, or None if missing."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(f"jungckit.{module_name}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    return None if original is None else (owner, attr, original)


def _bindings(owner, attr, original):
    """Every (namespace owner, name) through which callers reach ``original``."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "jungckit" or name.startswith("jungckit.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, key))
    return found


class _Patcher:
    """Replace targets with wrappers and put the originals back."""

    def __init__(self):
        self.saved = []

    def install(self, target: str, make_wrapper) -> bool:
        resolved = _resolve(target)
        if resolved is None:
            return False
        owner, attr, original = resolved
        wrapper = make_wrapper(original)
        for ns, key in _bindings(owner, attr, original):
            self.saved.append((ns, key, original))
            setattr(ns, key, wrapper)
        return True

    def restore(self) -> None:
        for ns, key, original in reversed(self.saved):
            setattr(ns, key, original)
        self.saved.clear()


class Tracer:
    """Records one span per layer call: name, start, end, parent, block."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.counts: defaultdict = defaultdict(Counter)  # block -> counter -> value
        self.missing: list[str] = []
        self.block = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.depth[name] += 1
        # [name, start, end, parent, block, outermost span of this name]
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                           self.block, self.depth[name] == 1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        span = self.spans[idx]
        span[1], span[2] = start, end
        self.stack.pop()
        self.depth[span[0]] -= 1

    def _wrapper(self, name, hook, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start, time.perf_counter())
            if hook is not None:
                counts = tracer.counts[tracer.block]
                try:
                    hook(counts, args, result)
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    counts[f"{name}.hook_errors"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        patcher = _Patcher()
        missing = []
        try:
            for name, targets, hook in LAYERS:
                hits = [patcher.install(t, lambda fn, n=name, h=hook: self._wrapper(n, h, fn))
                        for t in targets]
                if not any(hits):
                    missing.append(name)
            self.missing = missing
            yield self
        finally:
            patcher.restore()

    @contextmanager
    def op(self):
        idx = self._open(OP)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())

    def block_times(self, block: int) -> dict:
        """Per-layer calls, busy and self seconds over one traced block.

        Busy time counts only the outermost span of a name, so a layer that
        reaches itself again is not counted twice.  Self time is a span's
        duration minus the durations of its direct children.
        """
        child = Counter()
        for name, start, end, parent, blk, _ in self.spans:
            if blk == block and parent >= 0:
                child[parent] += end - start
        calls, busy, self_s = Counter(), Counter(), Counter()
        for idx, (name, start, end, parent, blk, outermost) in enumerate(self.spans):
            if blk != block:
                continue
            calls[name] += 1
            if outermost:
                busy[name] += end - start
            self_s[name] += (end - start) - child[idx]
        return {"calls": calls, "busy": busy, "self": self_s}


class PeakProbe:
    """tracemalloc peaks of whole operations and of ``PEAK_LAYERS``.

    ``tracemalloc.reset_peak`` is global, so entering a probed layer first
    folds the peak so far into every enclosing measurement.
    """

    def __init__(self):
        self.layer_peak: Counter = Counter()
        self.frames: list[list] = []
        self.op_peak = 0

    def _fold(self, peak: int) -> None:
        self.op_peak = max(self.op_peak, peak)
        for frame in self.frames:
            frame[2] = max(frame[2], peak - frame[1])

    def _wrapper(self, name, fn):
        probe = self

        def probed(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            probe._fold(peak)
            tracemalloc.reset_peak()
            probe.frames.append([name, current, 0])
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                probe._fold(peak)
                frame = probe.frames.pop()
                probe.layer_peak[name] = max(probe.layer_peak[name], frame[2])

        probed.__wrapped__ = fn
        return probed

    @contextmanager
    def measure_op(self):
        """Trace allocations of one operation; its peak is left in ``op_peak``."""
        patcher = _Patcher()
        for name, target in PEAK_LAYERS:
            patcher.install(target, lambda fn, n=name: self._wrapper(n, fn))
        self.op_peak = 0
        tracemalloc.start()
        try:
            yield
        finally:
            self._fold(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            patcher.restore()
