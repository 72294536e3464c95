"""Per-layer tracing from outside the program.

Tracer.install() replaces every public function of each polydisklab
module, plus Polynomial.__call__ and Polynomial.coeffs_in, with a timing
wrapper at every module attribute that binds it (so labcli.minimal_norm
and experiments.schur_agler_norm are wrapped as well as the
definitions); uninstall() puts the originals back.  No program file is
changed.

A span's self time is its duration minus that of the spans it called.
A layer's self time is the sum over its functions, which is its span
time minus its child spans in other layers.  Counts are kept for every
call; span records are kept in memory, up to SPAN_CAP of them, and
written out at the end.
"""

import functools
import inspect
import json
import sys
import time
import types

LAYERS = ("disk_geometry", "pick_disk", "agler", "operators", "polynomials",
          "variety", "balance", "experiments", "labcli")
METHODS = (("polynomials", "Polynomial", "__call__"),
           ("polynomials", "Polynomial", "coeffs_in"))
SPAN_CAP = 100_000


class Tracer:
    def __init__(self, lab):
        self.functions = {}  # original function -> "layer.name"
        for layer in LAYERS:
            mod = sys.modules[f"{lab.__name__}.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self.functions[obj] = f"{layer}.{name}"
        self.methods = []
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{lab.__name__}.{layer}"], cls_name)
            self.methods.append((cls, attr, f"{layer}.{cls_name}.{attr}"))
        self.package = lab.__name__
        self.stats = {name: [0, 0.0] for name in self.functions.values()}
        self.stats.update({name: [0, 0.0] for _, _, name in self.methods})
        self.undecided_probes = 0
        self.spans = []
        self.dropped_spans = 0
        self._stack = []
        self._op = None
        self._wrappers = {fn: self._wrap(fn, name) for fn, name in self.functions.items()}
        self._patched = []

    def _wrap(self, fn, name):
        stats = self.stats[name]
        stack = self._stack
        perf = time.perf_counter
        counts_probes = name == "agler.schur_agler_norm"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time spent in the spans this one calls
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                stats[0] += 1
                stats[1] += t1 - t0 - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self._op, name, t0, t1, len(stack)))
                else:
                    self.dropped_spans += 1
            if counts_probes:
                self.undecided_probes += result.undecided_probes
            return result

        return wrapper

    def install(self):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    setattr(mod, name, self._wrappers[obj])
                    self._patched.append((mod, name, obj))
        for cls, attr, name in self.methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original, name))
            self._patched.append((cls, attr, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def op_runner(self, index, kind, run):
        """run() with the spans it makes tagged by one operation id."""
        def traced_run():
            self._op = f"{index}:{kind}"
            try:
                return run()
            finally:
                self._op = None
        return traced_run

    def per_round(self, rounds):
        """Self time and calls per traced round, for every wrapped
        function and every layer, and the undecided polydisk probes."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0.0
        for name, (calls, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[f"{name}.self_s"] = self_s / rounds
            out[f"{name}.calls"] = calls / rounds
            out[f"{layer}.self_s"] += self_s / rounds
            out[f"{layer}.calls"] += calls / rounds
        out["agler.undecided_probes"] = self.undecided_probes / rounds
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "name", "start_s", "end_s", "depth"],
                       "dropped": self.dropped_spans, "spans": self.spans}, fh)
        return path
