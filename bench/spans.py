"""Spans and counts recorded around calls into stripesim's modules.

The traced benchmark run installs wrappers from this file; the program
itself is not changed. A name bound with ``from .x import y`` is looked
up in the importing module, so every ``stripesim`` module (the package
included) that holds the original function gets the wrapper, not only
the defining one. The ``_Chain`` stage methods are wrapped as the one
place where per-stage time is visible until the program grows its own
stage hook.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute, span name). Every call of a span target
# records a span and counts one call under the span name.
SPAN_TARGETS = (
    ("stripesim.components", "amplifier_process", "components.amplifier"),
    ("stripesim.components", "dac_process", "components.dac"),
    ("stripesim.components", "iq_modem_process", "components.iq"),
    ("stripesim.components", "Oscillator.phases", "components.oscillator"),
    ("stripesim.stripe", "_Chain.element", "stripe.element"),
    ("stripesim.stripe", "propagate_downlink", "stripe.propagate"),
    ("stripesim.stripe", "propagate_uplink", "stripe.propagate"),
    ("stripesim.stripe", "calibrate_gains", "stripe.calibrate"),
    ("stripesim.stripe", "build_stripe", "stripe.build"),
    ("stripesim.stripe", "resolve_channel", "channel.resolve"),
    ("stripesim.waveform", "ofdm_modulate", "waveform.ofdm"),
    ("stripesim.waveform", "synthesize_symbols", "waveform.ofdm"),
    ("stripesim.waveform", "extract_symbols", "waveform.ofdm"),
    ("stripesim.waveform", "demap_qam", "waveform.demap"),
    ("stripesim.channel", "apply_channel", "channel.apply"),
    ("stripesim.channel", "add_thermal_noise", "channel.noise"),
    ("stripesim.channel", "add_awgn", "channel.noise"),
    ("stripesim.metrics", "estimate_channel", "metrics.estimate"),
    ("stripesim.metrics", "report", "metrics.report"),
    ("stripesim.dataset", "read_dataset", "dataset.open"),
    ("stripesim.dataset", "CfrDatasetReader.get_channel", "dataset.get_channel"),
    ("stripesim.dataset", "generate_synthetic", "dataset.generate"),
    ("stripesim.dataset", "write_dataset", "dataset.write"),
    ("stripesim.streams", "stream", "streams.stream"),
    ("stripesim.config", "load_environment", "config.load"),
    ("stripesim.config", "load_waveform", "config.load"),
    ("stripesim.config", "load_components", "config.load"),
    ("stripesim.touchstone", "read_touchstone", "touchstone.parse"),
    ("stripesim.touchstone", "interpolate_s21", "touchstone.interpolate"),
)

# (defining module, attribute, counter, amount). Count-only targets add
# no span, so their time stays with the caller: a ``_Chain.amplifier``
# stage is counted, and its own work apart from ``amplifier_process``
# belongs to the walk. ``amount`` maps the call's result to the number
# added; None adds one per call.
COUNT_TARGETS = (
    ("stripesim.stripe", "_Chain.amplifier", "stripe.amplifier_stage", None),
    ("stripesim.dataset", "CfrDatasetReader._read_checked", "dataset.bytes_read", len),
)

# Per-layer time metric -> the span names whose self time it sums.
TIME_METRICS = {
    "components.amplifier_s": ("components.amplifier",),
    "components.dac_s": ("components.dac",),
    "components.iq_s": ("components.iq",),
    "components.oscillator_s": ("components.oscillator",),
    "stripe.element_s": ("stripe.element",),
    "stripe.propagate_self_s": ("stripe.propagate",),
    "stripe.calibrate_s": ("stripe.calibrate",),
    "stripe.build_s": ("stripe.build",),
    "waveform.ofdm_s": ("waveform.ofdm",),
    "waveform.demap_s": ("waveform.demap",),
    "channel.apply_s": ("channel.apply",),
    "channel.noise_s": ("channel.noise",),
    "channel.resolve_s": ("channel.resolve",),
    "metrics.estimate_s": ("metrics.estimate",),
    "metrics.report_s": ("metrics.report",),
    "dataset.get_channel_s": ("dataset.get_channel",),
    "dataset.open_s": ("dataset.open",),
    "dataset.generate_s": ("dataset.generate",),
    "dataset.write_s": ("dataset.write",),
    "streams.stream_s": ("streams.stream",),
    "config.load_s": ("config.load",),
    "touchstone.parse_s": ("touchstone.parse",),
    "touchstone.interpolate_s": ("touchstone.interpolate",),
}

# Per-layer count metric -> the counters it sums.
COUNT_METRICS = {
    "components.amplifier_calls": ("components.amplifier",),
    "stripe.chain_stages": ("stripe.element", "stripe.amplifier_stage"),
    "streams.stream_calls": ("streams.stream",),
    "config.load_calls": ("config.load",),
    "touchstone.parse_calls": ("touchstone.parse",),
    "dataset.bytes_read": ("dataset.bytes_read",),
}


class Tracer:
    """In-memory span and counter store with attribute-swapping install.

    A span is ``(name, start, end, parent, op)``: ``parent`` is the index
    of the enclosing span or -1, and ``op`` labels the operation (or
    set-up phase) that was running. Single-threaded: traced runs keep
    every call in one thread.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.op = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            op = self.op
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, op)
                self.counts[op][name] += 1
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn, amount):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[self.op][name] += 1 if amount is None else amount(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target wherever the program looks it up."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, attr, name in SPAN_TARGETS:
            self._wrap(module, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for module, attr, name, amount in COUNT_TARGETS:
            self._wrap(module, attr, lambda fn, n=name, a=amount: self._count_wrapper(n, fn, a))

    def _wrap(self, module, attr, make):
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            wrapper = make(original)
            self._patched.append((cls, meth, original))
            setattr(cls, meth, wrapper)
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stripesim" or mod_name.startswith("stripesim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self):
        """Restore every original binding, in reverse order."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and merged before
    subtraction, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result.append((end - start) - covered)
    return result


def summarize(spans, counts, ops) -> dict:
    """Per-layer metrics summed over the spans and counters of ``ops``."""
    wanted = set(ops)
    by_name: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        if span[4] in wanted:
            by_name[span[0]] += own
    totals: Counter = Counter()
    for op in wanted:
        totals.update(counts.get(op, {}))
    out = {metric: sum(by_name[n] for n in names) for metric, names in TIME_METRICS.items()}
    out.update({metric: sum(totals[n] for n in names) for metric, names in COUNT_METRICS.items()})
    return out


def op_counts(counts, op) -> dict:
    """The count metrics of one operation, for the repeat check."""
    return {metric: sum(counts.get(op, {}).get(n, 0) for n in names)
            for metric, names in COUNT_METRICS.items()}
