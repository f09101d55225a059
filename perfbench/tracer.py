"""Per-layer tracing of the denumerant package from outside it.

`Tracer.install()` replaces every public function of the six layer modules
(numbers, congruence, partition, polypart, frobenius, cli) with a timing
wrapper, in every `denumerant` namespace that binds it: the defining
module, each sibling module that imported it, and the package root.  A call
from `partition.p` to `fiber` therefore goes through the wrapper too, so a
nested call's time is subtracted from its caller (self time = span minus
the spans of its direct children).

Generators (`iter_compositions`, `iter_box_sums`) are timed per `next()`,
so the consumer's loop body is not charged to them.  `iter_compositions`
recurses through its own module global; only the outermost generator is
wrapped and its yields are what `numbers.compositions` counts.

Spans stay in memory (capped at MAX_SPANS) and are written by the caller
when the run ends.  Each `build_fiber_index` runs under `tracemalloc`, whose
peak gives `congruence.peak_mb`; this inflates index builds several-fold,
which is why only the traced run installs a tracer.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("numbers", "congruence", "partition", "polypart", "frobenius", "cli")
ROUTES = ("product", "popoviciu", "oracle", "divisibility")
COUNTS = (
    "numbers.compositions",
    "numbers.bernoulli_calls",
    "congruence.box_tuples",
    "congruence.fiber_tuples",
    "congruence.index_builds",
    *(f"partition.route.{r}" for r in ROUTES),
    "partition.oracle_cells",
    "partition.fiber_terms",
    "polypart.box_sums",
)
MAX_SPANS = 200_000
_now = time.perf_counter_ns

# Frame slots: a frame is a list for speed.
_LAYER, _NAME, _START, _CHILD, _ID, _KIDS, _FIBER = range(7)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self.peak_bytes = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_id = None
        self._stack: list[list] = []
        self._next_id = 0
        self._in_compositions = 0
        self._patched: list[tuple] = []
        self._originals: dict[str, object] = {}

    # -- frames -------------------------------------------------------------

    def _enter(self, layer, name, kids=False):
        self._next_id += 1
        frame = [layer, name, _now(), 0, self._next_id, set() if kids else None, None]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, record=True):
        end = _now()
        stack = self._stack
        stack.pop()
        dur = end - frame[_START]
        self.self_ns[frame[_LAYER]] += dur - frame[_CHILD]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[_CHILD] += dur
            if parent[_KIDS] is not None:
                parent[_KIDS].add(frame[_NAME])
        if record:
            self.calls[frame[_LAYER]] += 1
            self._span(frame, parent, frame[_START], end)
        return parent

    def _span(self, frame, parent, start, end):
        if len(self.spans) < MAX_SPANS:
            pid = parent[_ID] if parent is not None else None
            self.spans.append(
                (self.op_id, frame[_ID], pid, frame[_LAYER], frame[_NAME], start, end)
            )
        else:
            self.spans_dropped += 1

    def begin_op(self, op_id):
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        return self._enter("bench", "op")

    def end_op(self, frame):
        self._exit(frame)

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, fn, layer, name):
        tracer = self
        hook = getattr(self, f"_after_{name}", None)
        kids = name == "p"
        measure = name == "build_fiber_index"

        def wrapper(*args, **kwargs):
            frame = tracer._enter(layer, name, kids)
            started = False
            if measure and not tracemalloc.is_tracing():
                tracemalloc.start()
                started = True
            try:
                result = fn(*args, **kwargs)
                if started:
                    tracer.peak_bytes = max(tracer.peak_bytes, tracemalloc.get_traced_memory()[1])
            finally:
                if started:
                    tracemalloc.stop()
                parent = tracer._exit(frame)
            if hook is not None:
                hook(args, kwargs, result, frame, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, layer, name):
        tracer = self
        compositions = name == "iter_compositions"
        hook = getattr(self, f"_after_{name}", None)

        def drive(gen, creator):
            first = last = None
            frame = None
            try:
                while True:
                    frame = tracer._enter(layer, name)
                    if first is None:
                        first = frame[_START]
                    tracer._in_compositions += compositions
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._in_compositions -= compositions
                        tracer._exit(frame, record=False)
                        last = _now()
                    if compositions:
                        tracer.counts["numbers.compositions"] += 1
                    yield item
            finally:
                if frame is not None:
                    tracer._span(frame, creator, first, last)

        def wrapper(*args, **kwargs):
            if compositions and tracer._in_compositions:
                return fn(*args, **kwargs)  # recursion inside the outer generator
            gen = fn(*args, **kwargs)
            tracer.calls[layer] += 1
            if hook is not None:
                hook(args, kwargs, None, None, None)
            return drive(gen, tracer._stack[-1] if tracer._stack else None)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Import the package and patch every binding of every public
        function of the layer modules."""
        import denumerant  # noqa: F401
        import denumerant.cli  # noqa: F401

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"denumerant.{layer}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for name in names:
                obj = getattr(mod, name)
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                self._originals[name] = obj
                if inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap_generator(obj, layer, name))
                else:
                    wrappers[id(obj)] = (obj, self._wrap_function(obj, layer, name))
        for modname, mod in list(sys.modules.items()):
            if modname != "denumerant" and not modname.startswith("denumerant."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- counters, one hook per function that has one ---------------------------

    def _after_build_fiber_index(self, args, kwargs, result, frame, parent):
        self.counts["congruence.index_builds"] += 1
        self.counts["congruence.box_tuples"] += result.instance.box_size

    def _after_iter_box_sums(self, args, kwargs, result, frame, parent):
        self.counts["congruence.box_tuples"] += _arg(args, kwargs, 0, "inst").box_size

    def _after_fiber(self, args, kwargs, result, frame, parent):
        inst = _arg(args, kwargs, 0, "inst")
        n = _arg(args, kwargs, 1, "n")
        self.counts["congruence.fiber_tuples"] += len(result)
        if (n % inst.D) % inst.g == 0:  # otherwise fiber() returns before scanning
            self.counts["congruence.box_tuples"] += inst.box_size // max(inst.axis_lengths)
        if parent is not None:
            parent[_FIBER] = len(result)

    def _after_p(self, args, kwargs, result, frame, parent):
        kids = frame[_KIDS]
        if "p_popoviciu" in kids:
            route = "popoviciu"
        elif "p_product" in kids:
            route = "product"
        elif "p_oracle" in kids:
            route = "oracle"
        else:
            route = "divisibility"
        self.counts[f"partition.route.{route}"] += 1

    def _after_p_oracle_upto(self, args, kwargs, result, frame, parent):
        a = _arg(args, kwargs, 0, "a")
        self.counts["partition.oracle_cells"] += len(tuple(a)) * len(result)

    def _fiber_terms(self, args, kwargs, frame):
        index = kwargs.get("index")
        if index is not None:
            self.counts["partition.fiber_terms"] += len(index.fiber(_arg(args, kwargs, 1, "n")))
        elif frame[_FIBER] is not None:
            self.counts["partition.fiber_terms"] += frame[_FIBER]

    def _after_p_product(self, args, kwargs, result, frame, parent):
        self._fiber_terms(args, kwargs, frame)

    def _after_p_stirling(self, args, kwargs, result, frame, parent):
        self._fiber_terms(args, kwargs, frame)

    def _after_is_zero(self, args, kwargs, result, frame, parent):
        self._fiber_terms(args, kwargs, frame)

    def _after_quasipoly(self, args, kwargs, result, frame, parent):
        self.counts["partition.fiber_terms"] += result.instance.box_size

    def _after_polypart_box_average(self, args, kwargs, result, frame, parent):
        index = kwargs.get("index")
        if index is not None:
            box = index.instance.box_size
        else:
            make_instance = self._originals["make_instance"]
            box = make_instance(_arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "d_choice", "lcm")).box_size
        self.counts["polypart.box_sums"] += box

    def _after_bernoulli(self, args, kwargs, result, frame, parent):
        self.counts["numbers.bernoulli_calls"] += 1

    # -- results --------------------------------------------------------------

    def dump(self) -> dict:
        """Plain-data state, for a child process to hand to its parent."""
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "peak_bytes": self.peak_bytes,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }

    def merge(self, data: dict, frame):
        """Add a child process's `dump()`; its spans become descendants of
        `frame`, the root span of the operation that started the child."""
        self.self_ns.update(data["self_ns"])
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])
        self.peak_bytes = max(self.peak_bytes, data["peak_bytes"])
        offset = self._next_id
        for _, sid, pid, layer, name, start, end in data["spans"]:
            self._next_id = max(self._next_id, sid + offset)
            if len(self.spans) < MAX_SPANS:
                parent = pid + offset if pid is not None else frame[_ID]
                self.spans.append((self.op_id, sid + offset, parent, layer, name, start, end))
            else:
                self.spans_dropped += 1
        self.spans_dropped += data["spans_dropped"]

    def layer_metrics(self, wall_ns: int) -> dict:
        """`<layer>.calls`, `.self_ms`, `.self_share` for every layer, plus the
        counters; shares are of `wall_ns`, the summed wall time of the traced
        operations."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_ms"] = (self.self_ns[layer] / 1e6, "ms")
            out[f"{layer}.self_share"] = (self.self_ns[layer] / wall_ns if wall_ns else 0.0, "ratio")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        out["congruence.peak_mb"] = (self.peak_bytes / 2**20, "MB")
        return out
