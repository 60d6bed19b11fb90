"""Spans and counters recorded around the benchmark's calls into koenigs.

Every public koenigs function the benchmark calls goes through
`Recorder.call`.  The layer of a call is the koenigs module that defines
the function (`koenigs.flow.integrate` -> `flow`).  With tracing off the
recorder only counts calls and failures; with tracing on it also keeps one
span per call and one per op, in memory, and `write_spans` dumps them when
the run ends.  Spans are never nested below one level: an op span is the
parent of the call spans made while it runs, so a layer's self time is the
sum of its call spans.
"""

import json
import time

LAYERS = ("models", "invariants", "geodesics", "flow", "actions", "quantum",
          "specfun", "verify")

_clock = time.perf_counter


def layer_of(func):
    module = getattr(func, "__module__", "") or ""
    if not module.startswith("koenigs."):
        raise ValueError(f"{func!r} is not a koenigs function")
    layer = module.split(".")[1]
    if layer not in LAYERS:
        raise ValueError(f"{func.__qualname__} lives in untracked module {module}")
    return layer


class Recorder:
    """Per-run call counts, failure counts and (when tracing) spans."""

    def __init__(self, trace):
        self.trace = trace
        self.calls = dict.fromkeys(LAYERS, 0)
        self.failed = dict.fromkeys(LAYERS, 0)
        self.counts = {}
        self.op_spans = []     # (op_id, op_name, start, end)
        self.call_spans = []   # (op_id, layer, func_name, start, end)
        self.op_id = None
        self.last_call = None   # (layer, function) of the latest call, blamed when an op raises

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, func, *args, **kwargs):
        """Call a koenigs function, recording its layer; exceptions propagate."""
        layer = layer_of(func)
        self.calls[layer] += 1
        self.last_call = (layer, func.__name__)
        if not self.trace:
            return func(*args, **kwargs)
        start = _clock()
        try:
            return func(*args, **kwargs)
        finally:
            self.call_spans.append((self.op_id, layer, func.__name__, start, _clock()))

    def fail(self, layer):
        self.failed[layer] = self.failed.get(layer, 0) + 1

    def begin_op(self, op_id):
        self.op_id = op_id
        self.last_call = None
        return _clock()

    def end_op(self, op_id, name, start):
        end = _clock()
        if self.trace:
            self.op_spans.append((op_id, name, start, end))
        self.op_id = None
        return end - start

    def self_seconds(self):
        """Seconds inside each layer's calls."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for _, layer, _, start, end in self.call_spans:
            totals[layer] += end - start
        return totals

    def seconds_in(self, func_name):
        return sum(end - start for _, _, name, start, end in self.call_spans if name == func_name)

    def write_spans(self, path):
        with open(path, "w") as out:
            for op_id, name, start, end in self.op_spans:
                out.write(json.dumps({"kind": "op", "op": op_id, "name": name,
                                      "start": start, "end": end}) + "\n")
            for op_id, layer, name, start, end in self.call_spans:
                out.write(json.dumps({"kind": "call", "op": op_id, "layer": layer,
                                      "name": name, "start": start, "end": end}) + "\n")
