"""Outside-in span tracer for the sfbcsim benchmark.

The tracer replaces functions at the names the program looks them up by
(a module attribute read at call time) with thin wrappers that record one
span per call: (id, name, parent id, start, end, thread id).  Nothing in
the package itself is instrumented.  `Tracer.restore` puts every original
back and `Tracer.assert_restored` proves it did.

Spans are kept in memory and folded into per-name totals by `self_times`:
a span's self time is its duration minus the part of its interval that its
direct children cover (their union, so overlapping children from several
threads never make it negative).  Self times of one name are summed over
threads and therefore measure busy time, not wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# (span name, module the caller reads the name from, attribute name).
# Grid functions are wrapped inside `harness`, which imports them by name;
# `strip_padding` is looked up inside `grid` by `ofdm_demodulate`.  The
# harness and cli entry points are wrapped at the package attributes the
# benchmark itself calls.
TARGETS = (
    ("modem.generate_bits", "sfbcsim.modem", "generate_bits"),
    ("modem.modulate", "sfbcsim.modem", "modulate"),
    ("modem.demodulate", "sfbcsim.modem", "demodulate"),
    ("modem.bit_errors", "sfbcsim.modem", "bit_errors"),
    ("sfbc.sfbc_encode", "sfbcsim.sfbc", "sfbc_encode"),
    ("sfbc.sfbc_decode", "sfbcsim.sfbc", "sfbc_decode"),
    ("sfbc.interleave_pairs", "sfbcsim.sfbc", "interleave_pairs"),
    ("pilots.insert_pilots", "sfbcsim.pilots", "insert_pilots"),
    ("pilots.estimate_channel", "sfbcsim.pilots", "estimate_channel"),
    ("pilots.pilot_values", "sfbcsim.pilots", "pilot_values"),
    ("pilots.normalize_pilots", "sfbcsim.pilots", "normalize_pilots"),
    ("pilots.interpolate_channel", "sfbcsim.pilots", "interpolate_channel"),
    ("grid.zero_pad", "sfbcsim.harness", "zero_pad"),
    ("grid.ofdm_modulate", "sfbcsim.harness", "ofdm_modulate"),
    ("grid.ofdm_demodulate", "sfbcsim.harness", "ofdm_demodulate"),
    ("grid.strip_padding", "sfbcsim.grid", "strip_padding"),
    ("channel.realize_channel", "sfbcsim.channel", "realize_channel"),
    ("channel.apply_channel", "sfbcsim.channel", "apply_channel"),
    ("channel.add_awgn", "sfbcsim.channel", "add_awgn"),
    ("harness.run_sweep", "sfbcsim", "run_sweep"),
    ("cli.load_config", "sfbcsim", "load_config"),
    ("cli.emit_csv", "sfbcsim", "emit_csv"),
)


class Tracer:
    """Wraps every target on `install`, records spans, restores on `restore`.

    Use as a context manager.  A span opened on a thread with no open span
    of its own (a harness pool worker) takes as parent the innermost span
    open on the installing thread, which is blocked inside `run_sweep`.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple[int, str, int | None, float, float, int]] = []
        self._originals: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._owner_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # slicing is atomic, so a racing pop on the owner cannot raise
            parent = (stack[-1:] or self._owner_stack[-1:] or [None])[0]
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, parent, start, end, threading.get_ident()))

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("a Tracer installs only once")
        self._local.stack = self._owner_stack
        for name, module_name, attr in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)

    def assert_restored(self) -> None:
        """Raise unless every wrapped name is bound to its original again."""
        for module, attr, original in self._originals:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
        self.assert_restored()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time in seconds, and the call count."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span_id, name, _, start, end, _ in spans:
        covered = [(max(lo, start), min(hi, end)) for lo, hi in children.get(span_id, ())]
        busy[name] += (end - start) - _union_length([c for c in covered if c[1] > c[0]])
        calls[name] += 1
    return dict(busy), dict(calls)
