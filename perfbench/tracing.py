"""Per-layer tracing installed from outside the program.

`Tracer.install()` rebinds every public function of every `towerlim.*`
module to a wrapper that records a span.  Rebinding goes by object
identity, not by name, so a function imported under another name (as
`limits` imports `exactlat.kernel` as `lattice_kernel`) gets the same
wrapper everywhere, and imports inside function bodies pick the wrapper
up from the defining module.  `IntMatrix.__mul__` and the
`FgAbGroup.smith_invariants` property are wrapped as well.

A span records its name, start, end, parent span and op id, in flat
arrays so that millions of spans fit in memory; `write_spans` writes
them out when the run ends.  A layer is
the module that defines the function; self time is a span's duration
minus the time of its child spans.
"""

import gzip
import sys
import types
from array import array
from time import perf_counter

# Span names of the two wrapped class attributes.
MATMUL = "exactlat.matmul"
SMITH = "exactlat.smith_invariants"


def _max_bits(matrices):
    best = 0
    for m in matrices:
        for row in m.data:
            for x in row:
                b = abs(x).bit_length()
                if b > best:
                    best = b
    return best


class Stat:
    __slots__ = ("calls", "self_s", "raised", "extra", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.raised = {}
        self.extra = {}
        self.keys = None


class Tracer:
    def __init__(self):
        # span i: names[name_ids[i]], starts[i], ends[i], parents[i], ops[i];
        # raised[i] names the exception that ended it, if any
        self.names = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.raised = {}
        self.stack = []          # open spans: [index, child time]
        self.stats = {}
        self.op = -1
        self.search_depth = 0    # open find_interleaving spans
        self.matmul_in_search = 0

    # -- recording --------------------------------------------------------

    def begin_op(self, op):
        """Spans from here on belong to op; a timed-out op may have left
        frames open, so the stack starts empty."""
        self.op = op
        self.stack.clear()
        self.search_depth = 0

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, fn, name, probe=None, key=None):
        tracer = self
        stack = self.stack
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ops, raised_by = self.parents, self.ops, self.raised
        name_id = len(self.names)
        self.names.append(name)
        stat = self._stat(name)
        is_search = name == "procat.find_interleaving"
        is_matmul = name == MATMUL

        def wrapper(*args, **kwargs):
            idx = len(starts)
            frame = [idx, 0.0]
            name_ids.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(frame)
            if is_search:
                tracer.search_depth += 1
            elif is_matmul and tracer.search_depth:
                tracer.matmul_in_search += 1
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc).__name__
                raised_by[idx] = raised
                stat.raised[raised] = stat.raised.get(raised, 0) + 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                ends[idx] = t1
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if is_search:
                    tracer.search_depth -= 1
            if probe is not None:
                probe(stat, args, result)
            if key is not None:
                if stat.keys is None:
                    stat.keys = set()
                stat.keys.add(key(args))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if n.startswith("towerlim.") and isinstance(m, types.ModuleType)}
        originals = {}
        for mod in mods.values():
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__name__ == attr
                        and getattr(val, "__module__", "").startswith("towerlim.")
                        and val.__module__ == mod.__name__):
                    originals[id(val)] = val
        wrappers = {}
        for fid, fn in originals.items():
            name = "%s.%s" % (fn.__module__.split(".")[-1], fn.__name__)
            probe, key = PROBES.get(name, (None, None))
            wrappers[fid] = self._wrap(fn, name, probe, key)
        for mod in list(mods.values()) + [sys.modules.get("towerlim")]:
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and val is originals[id(val)]:
                    setattr(mod, attr, wrappers[id(val)])
        exactlat = mods["towerlim.exactlat"]
        im = exactlat.IntMatrix
        im.__mul__ = self._wrap(im.__mul__, MATMUL)
        fg = exactlat.FgAbGroup
        prop = fg.__dict__["smith_invariants"]
        fg.smith_invariants = property(self._wrap(
            prop.fget, SMITH,
            key=lambda a: (a[0].generators, a[0].relations.data)))

    # -- output -------------------------------------------------------------

    def span_count(self):
        return len(self.starts)

    def write_spans(self, path):
        """Spans as tab-separated lines: name, start, end, parent, op, raised."""
        names, raised = self.names, self.raised
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (n, t0, t1, parent, op) in enumerate(zip(
                    self.name_ids, self.starts, self.ends, self.parents, self.ops)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\t%s\n"
                         % (names[n], t0, t1, parent, op, raised.get(i, "")))

    def summary(self):
        """Per-name aggregates, JSON-ready, to be summed over passes.

        Inputs never repeat across passes, so distinct argument counts
        of separate passes add up."""
        out = {}
        for name, st in self.stats.items():
            if not st.calls:
                continue
            d = {"calls": st.calls, "self_s": st.self_s, "raised": st.raised}
            d.update(st.extra)
            if st.keys is not None:
                d["distinct"] = len(st.keys)
            out[name] = d
        out["procat.matmul_in_search"] = {"calls": self.matmul_in_search}
        return out


# -- probes: extra per-call numbers for a few functions ----------------------

def _peak(stat, field, value):
    if value > stat.extra.get(field, 0):
        stat.extra[field] = value


def _hnf_probe(stat, args, result):
    m = args[0]
    _peak(stat, "max_dim", max(m.rows, m.cols))
    _peak(stat, "max_bits", _max_bits(result))


def _snf_probe(stat, args, result):
    _peak(stat, "max_bits", _max_bits(result))


def _factor_probe(stat, args, result):
    _peak(stat, "max_degree", len(args[0]) - 1)


def _search_probe(stat, args, result):
    if result is not None:
        stat.extra["found"] = stat.extra.get("found", 0) + 1


def _homology_probe(stat, args, result):
    _peak(stat, "max_simplices", len(args[0].simplices))


def _tower_key(args):
    t = args[0]
    T, A = t.tail_group, t.tail_endo
    return (T.generators, T.relations.data, A.matrix.data)


PROBES = {
    "exactlat.hnf": (_hnf_probe, None),
    "exactlat.snf": (_snf_probe, None),
    "limits.factor_monic": (_factor_probe, None),
    "procat.find_interleaving": (_search_probe, None),
    "simplicial.homology_invariants": (_homology_probe, None),
    "towers.tail_reduction": (None, _tower_key),
}
