"""In-memory span tracer that wraps the library's layer functions from outside.

Each wrapped function records one span (name, start, end, parent) per call.
The wrappers are installed by rebinding the name where callers look it up
(module globals or class attributes) and are removed again when the traced
section ends, so untraced code runs the original functions untouched.
"""

from __future__ import annotations

import json
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

from coopcdma import gpc, harness, ipc, mmse, relays, rlscore


# (owner, attribute, span name) for every lookup site on the packet path.
# One span name may appear at several lookup sites: the harness and the relays
# module each bind their own name for mmse_relay_bank, hard_decision and
# correlation_gain, and ipc calls gpc.channel_update through its own import.
WRAP_POINTS = [
    (harness, "draw_scenario", "harness.draw_scenario"),
    (harness, "design_exact", "harness.design_exact"),
    (harness, "simulate_packet_exact", "harness.simulate_packet_exact"),
    (harness, "simulate_packet_adaptive", "harness.simulate_packet_adaptive"),
    (harness, "relay_statistics", "relays.relay_statistics"),
    (harness, "mmse_relay_bank", "relays.mmse_relay_bank"),
    (relays, "mmse_relay_bank", "relays.mmse_relay_bank"),
    (relays.AdaptiveRelay, "step", "relays.AdaptiveRelay.step"),
    (mmse, "relay_omega", "mmse.relay_omega"),
    (mmse, "alternate", "mmse.alternate"),
    (mmse, "build_statistics", "mmse.build_statistics"),
    (mmse, "_checked_solve", "mmse._checked_solve"),
    (mmse, "total_mse", "mmse.total_mse"),
    (rlscore.ExpWeightedInverse, "update_rows",
     "rlscore.ExpWeightedInverse.update_rows"),
    (gpc, "correlation_gain", "rlscore.correlation_gain"),
    (relays, "correlation_gain", "rlscore.correlation_gain"),
    (gpc, "channel_update", "gpc.channel_update"),
    (ipc, "channel_update", "gpc.channel_update"),
    (gpc, "receiver_update", "gpc.receiver_update"),
    (gpc, "power_update", "gpc.power_update"),
    (gpc, "waveforms_from_channel", "gpc.waveforms_from_channel"),
    (ipc, "user_channel_update", "ipc.user_channel_update"),
    (ipc, "user_power_update", "ipc.user_power_update"),
    (ipc, "user_waveforms_from_channel", "ipc.user_waveforms_from_channel"),
    (harness, "hard_decision", "model.hard_decision"),
    (relays, "hard_decision", "model.hard_decision"),
    (harness, "demodulate_qpsk", "model.demodulate_qpsk"),
]


class Tracer:
    """Collects spans and call counters across one or more traced sections."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # per span: [name id, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrapper(self, fn, name: str, observe):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every lookup site for the duration of the block.

        Pseudoinverse fallbacks in mmse._checked_solve surface only as
        warnings, so the block records warnings and counts those.
        """
        saved = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for owner, attr, name in WRAP_POINTS:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr,
                            self._wrapper(original, name, _OBSERVERS.get(name)))
                yield self
            self.counters["pinv_fallbacks"] += sum(
                "pseudoinverse" in str(w.message) for w in caught)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.spans)
        child = [0.0] * n
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name_id, start, end, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return calls, total, own

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)


def _observe_alternate(counters, args, result):
    counters["alternate.iterations"] += result.iterations
    counters["alternate.converged"] += bool(result.converged)


def _observe_update_rows(counters, args, result):
    counters["update_rows.rows"] += len(args[1])


_OBSERVERS = {
    "mmse.alternate": _observe_alternate,
    "rlscore.ExpWeightedInverse.update_rows": _observe_update_rows,
}


# (metric, span name, statistic, base, unit)
#   statistic: "total" or "self" seconds, "calls", or a counter name
#   base: per "packet", "symbol" (destination symbol of an adaptive packet),
#   "design" (harness.design_exact call), "alternate" (mmse.alternate call),
#   "call" (call of the span itself) or "round" (traced pass over the
#   workload's packets)
LAYER_METRICS = [
    ("harness.draw_scenario.ms_per_packet", "harness.draw_scenario", "total", "packet", "ms"),
    ("harness.design_exact.ms_per_packet", "harness.design_exact", "total", "packet", "ms"),
    ("harness.simulate_packet_exact.self_ms_per_packet", "harness.simulate_packet_exact", "self", "packet", "ms"),
    ("harness.simulate_packet_adaptive.self_us_per_symbol", "harness.simulate_packet_adaptive", "self", "symbol", "us"),
    ("relays.mmse_relay_bank.calls_per_packet", "relays.mmse_relay_bank", "calls", "packet", "count"),
    ("relays.mmse_relay_bank.us_per_call", "relays.mmse_relay_bank", "total", "call", "us"),
    ("relays.relay_statistics.ms_per_packet", "relays.relay_statistics", "total", "packet", "ms"),
    ("relays.AdaptiveRelay.step.us_per_symbol", "relays.AdaptiveRelay.step", "total", "symbol", "us"),
    ("mmse.relay_omega.ms_per_packet", "mmse.relay_omega", "total", "packet", "ms"),
    ("mmse.alternate.ms_per_packet", "mmse.alternate", "total", "packet", "ms"),
    ("mmse.alternate.iterations_per_design", "mmse.alternate", "alternate.iterations", "alternate", "count"),
    ("mmse.alternate.converged_share", "mmse.alternate", "alternate.converged", "alternate", "ratio"),
    ("mmse.build_statistics.calls_per_design", "mmse.build_statistics", "calls", "design", "count"),
    ("mmse.build_statistics.us_per_call", "mmse.build_statistics", "total", "call", "us"),
    ("mmse._checked_solve.calls_per_design", "mmse._checked_solve", "calls", "design", "count"),
    ("mmse._checked_solve.us_per_call", "mmse._checked_solve", "total", "call", "us"),
    ("mmse._checked_solve.pinv_fallbacks", "mmse._checked_solve", "pinv_fallbacks", "round", "count"),
    ("mmse.total_mse.us_per_call", "mmse.total_mse", "total", "call", "us"),
    ("rlscore.ExpWeightedInverse.update_rows.us_per_symbol", "rlscore.ExpWeightedInverse.update_rows", "total", "symbol", "us"),
    ("rlscore.ExpWeightedInverse.update_rows.rows_per_symbol", "rlscore.ExpWeightedInverse.update_rows", "update_rows.rows", "symbol", "count"),
    ("rlscore.correlation_gain.calls_per_symbol", "rlscore.correlation_gain", "calls", "symbol", "count"),
    ("rlscore.correlation_gain.us_per_call", "rlscore.correlation_gain", "total", "call", "us"),
    ("gpc.channel_update.self_us_per_symbol", "gpc.channel_update", "self", "symbol", "us"),
    ("gpc.receiver_update.self_us_per_symbol", "gpc.receiver_update", "self", "symbol", "us"),
    ("gpc.power_update.us_per_symbol", "gpc.power_update", "total", "symbol", "us"),
    ("gpc.waveforms_from_channel.us_per_symbol", "gpc.waveforms_from_channel", "total", "symbol", "us"),
    ("ipc.user_channel_update.us_per_symbol", "ipc.user_channel_update", "total", "symbol", "us"),
    ("ipc.user_power_update.us_per_symbol", "ipc.user_power_update", "total", "symbol", "us"),
    ("ipc.user_waveforms_from_channel.us_per_symbol", "ipc.user_waveforms_from_channel", "total", "symbol", "us"),
    ("model.hard_decision.us_per_call", "model.hard_decision", "total", "call", "us"),
    ("model.demodulate_qpsk.us_per_call", "model.demodulate_qpsk", "total", "call", "us"),
]

_SCALE = {"ms": 1e3, "us": 1e6, "count": 1.0, "ratio": 1.0}


def layer_metrics(tracer: Tracer, rounds: int, packets: int, symbols: int) -> dict:
    """Per-layer metrics from the recorded spans.

    rounds, packets and symbols count the work done inside the traced
    sections; a
    metric whose function never ran, or whose base is zero on this workload
    (for example per-symbol figures on the exact path), reads 0.
    """
    calls, total, own = tracer.totals()
    bases = {"round": rounds, "packet": packets, "symbol": symbols,
             "design": calls.get("harness.design_exact", 0),
             "alternate": calls.get("mmse.alternate", 0)}
    out = {}
    for metric, span, stat, per, unit in LAYER_METRICS:
        if stat == "total":
            value = total.get(span, 0.0)
        elif stat == "self":
            value = own.get(span, 0.0)
        elif stat == "calls":
            value = calls.get(span, 0)
        else:
            value = tracer.counters.get(stat, 0.0)
        base = calls.get(span, 0) if per == "call" else bases[per]
        value = value * _SCALE[unit] / base if base else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def self_seconds(tracer: Tracer) -> float:
    """Sum of every span's self time: the time the traced layers account for."""
    _, _, own = tracer.totals()
    return sum(own.values())
