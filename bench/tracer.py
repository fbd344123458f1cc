"""Function-boundary tracer for the benchmark's traced run.

The tracer wraps every public function and public method of each rpn2 module
(plus the few private ones named in EXTRA) and records a span per call: the
function, its layer, start, end, the enclosing span and the op it belongs to.
Layers are named after the modules; LAYERS maps functions to them.

Modules copy functions into their own namespace (`from .numeric_core import
as_dense`) and keep them in dispatch tables (`cli._COMMANDS`), so install()
rebinds every module attribute and every module-level dict value that is
bound to a wrapped function, not only the defining module's name. Methods
are patched on the class, which every alias of the class shares.

A call into the layer that is already innermost records no span of its own
(the open span covers it); it is still counted in `calls`.

Spans are kept in memory per op. end_op() folds an op's spans into per-layer
self time, entries and counters; the raw spans of the first KEEP_OPS ops
and of set-up are kept and written out by the harness when the run ends.
"""

import functools
import importlib
import inspect
import time

import numpy as np

import workloads

BOOKKEEPING = "trace.bookkeeping"
# Ops whose raw spans are kept for the trace file, besides set-up.
KEEP_OPS = 5

# module -> ordered (function name prefix or "*", layer); first match wins.
LAYERS = {
    "numeric_core": [
        ("Tape.backward", "numeric_core.backward"),
        ("SparseCoo.", "numeric_core.sparse"),
        ("solve", "numeric_core.solve"),
        ("matrix_exp", "numeric_core.matrix_exp"),
        ("Prng.", "numeric_core.prng"),
        ("Node.", "numeric_core.tape"),
        ("Tape.", "numeric_core.tape"),
        ("softmax_node", "numeric_core.tape"),
        ("l1_normalize_node", "numeric_core.tape"),
        ("concat_nodes", "numeric_core.tape"),
        ("blocks_dot", "numeric_core.tape"),
        ("cross_entropy_node", "numeric_core.tape"),
        ("*", "numeric_core.dense"),
    ],
    "grid_geometry": [("*", "grid_geometry")],
    "interdependence": [
        ("param_length", "interdependence.meta"),
        ("*", "interdependence.build"),
    ],
    "transformation": [
        ("expand", "transformation.expand"),
        ("polynomial_values", "transformation.expand"),
        ("child_wavelet", "transformation.expand"),
        ("mother_wavelet", "transformation.expand"),
        ("ExpansionSpec.", "transformation.expand"),
        ("*", "transformation.compress"),
    ],
    "reconciliation": [
        ("param_length", "reconciliation.meta"),
        ("*", "reconciliation"),
    ],
    "fusion": [
        ("param_length", "fusion.meta"),
        ("*", "fusion"),
    ],
    "model": [
        ("init_store", "model.init_store"),
        ("build_interdep_node", "model.station.interdep"),
        ("_expand_node", "model.station.expansion"),
        ("train", "model.optimizer"),
        ("History.", "model.optimizer"),
        ("make_param_nodes", "model.params"),
        ("ParameterStore.", "model.params"),
        ("diagnostics", "model.diagnostics"),
        ("*", "model.head"),
    ],
    "backbone_equiv": [
        ("ref_", "backbone_equiv.reference"),
        ("*", "backbone_equiv.build"),
    ],
    "datasets": [("*", "datasets")],
    "cli": [("*", "cli")],
}

# Private functions that are layer boundaries all the same.
EXTRA = {
    "model": ["_expand_node"],
    "numeric_core": ["Node.__add__", "Node.__sub__", "Node.__mul__"],
}

STRUCTURAL = ("interdependence.grid_structural_matrix",
              "interdependence.chain_structural_matrix",
              "interdependence.graph_structural_matrix")


def _layer_of(module_short, qualname):
    for prefix, layer in LAYERS[module_short]:
        if prefix == "*" or qualname.startswith(prefix):
            return layer
    raise KeyError("no layer for %s.%s" % (module_short, qualname))


def _targets(module):
    """(qualname, owner, attribute, raw class-dict entry or function) of every
    public function and public method defined in `module`, plus EXTRA."""
    short = module.__name__.rsplit(".", 1)[-1]
    extra = set(EXTRA.get(short, ()))
    out = []
    for name, obj in sorted(vars(module).items()):
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and \
                (not name.startswith("_") or name in extra):
            out.append((name, module, name, obj))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__ and \
                not name.startswith("_"):
            for attr, raw in sorted(vars(obj).items()):
                qual = "%s.%s" % (name, attr)
                if attr.startswith("_") and qual not in extra:
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    out.append((qual, obj, attr, raw))
    return out


class Tracer:
    """Wraps the rpn2 modules and rebinds their aliases there and in the
    workloads module. Install with install(); bracket each op with
    begin_op()/end_op()."""

    def __init__(self):
        self.modules = rpn2_modules()
        self.alias_modules = [workloads]
        self.layers = []
        self._layer_ids = {}
        self.funcs = []          # qualified names, index = function id
        self.calls = []          # calls per function id over the whole run
        self.stack = []          # open spans: (span index, layer id)
        self.spans = []
        self.op_id = None
        self.kept = {}           # op id -> raw spans
        self.ops = []            # per-op aggregates
        self._patches = []       # (kind, owner, key, original)
        self.installed = False
        self._book_lid = self._layer_id(BOOKKEEPING)
        self._reset_counters()

    # -- layers and counters ---------------------------------------------

    def _layer_id(self, name):
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _reset_counters(self):
        self.nodes = 0
        self.draws = 0
        self.dense_bytes = 0
        self.vjp_evaluated = 0
        self.vjp_useful = 0
        self.struct_builds = 0
        self.struct_seen = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, qual, layer, before=None, after=None):
        fid = len(self.funcs)
        self.funcs.append(qual)
        self.calls.append(0)
        lid = self._layer_id(layer)
        tr = self
        clock = time.perf_counter
        calls = self.calls
        hooked = before is not None or after is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            stack = tr.stack
            if not hooked and stack and stack[-1][1] == lid:
                return fn(*args, **kwargs)
            spans = tr.spans
            idx = len(spans)
            rec = [fid, lid, 0.0, 0.0, stack[-1][0] if stack else -1, tr.nodes, 0]
            spans.append(rec)
            stack.append((idx, lid))
            rec[2] = clock()
            try:
                if before is not None:
                    tr._bookkeep(before, args, None)
                result = fn(*args, **kwargs)
                if after is not None:
                    tr._bookkeep(after, args, result)
                return result
            finally:
                rec[3] = clock()
                rec[6] = tr.nodes
                stack.pop()

        return wrapper

    def _bookkeep(self, hook, args, result):
        """Run a counting hook in a span of its own, so that the tracer's work
        is not charged to the layer it observes."""
        stack = self.stack
        idx = len(self.spans)
        rec = [-1, self._book_lid, time.perf_counter(), 0.0, stack[-1][0], self.nodes, 0]
        self.spans.append(rec)
        stack.append((idx, self._book_lid))
        try:
            hook(args, result)
        finally:
            rec[3] = time.perf_counter()
            rec[6] = self.nodes
            stack.pop()

    # -- counting hooks ----------------------------------------------------

    def _count_vjps(self, args, _):
        tape, loss = args[0], args[1]
        nodes = tape.nodes[: loss.nid + 1]
        reaches = bytearray(len(nodes))  # node reaches a parameter
        for node in nodes:
            if node.is_param or any(reaches[p.nid] for p, _ in node.vjps):
                reaches[node.nid] = 1
        live = bytearray(len(nodes))     # node receives a gradient
        live[loss.nid] = 1
        for node in reversed(nodes):
            if not live[node.nid] or node.is_param:
                continue
            for parent, _ in node.vjps:
                self.vjp_evaluated += 1
                self.vjp_useful += reaches[parent.nid]
                live[parent.nid] = 1

    def _count_structural(self, args, result):
        # the stack holds [..., caller, structural span, bookkeeping span]
        caller = self.spans[self.stack[-2][0]][4]
        if caller >= 0 and self.spans[caller][0] >= 0 and \
                self.funcs[self.spans[caller][0]] in STRUCTURAL:
            return  # a structural builder calling itself
        self.struct_builds += 1
        for seen in self.struct_seen:
            if type(seen) is type(result) and _same_matrix(seen, result):
                return
        self.struct_seen.append(result)

    def _count_to_dense(self, args, result):
        self.dense_bytes += result.nbytes

    def _count_as_dense(self, args, result):
        if result is not args[0] and not isinstance(args[0], self._sparse_type):
            self.dense_bytes += result.nbytes

    # -- install / uninstall ----------------------------------------------

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        nc = next(m for m in self.modules if m.__name__.endswith(".numeric_core"))
        self._sparse_type = nc.SparseCoo
        hooks = {
            "numeric_core.Tape.backward": (self._count_vjps, None),
            "numeric_core.SparseCoo.to_dense": (None, self._count_to_dense),
            "numeric_core.as_dense": (None, self._count_as_dense),
        }
        for name in STRUCTURAL:
            hooks[name] = (None, self._count_structural)
        originals = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for qual, owner, attr, raw in _targets(module):
                full = "%s.%s" % (short, qual)
                before, after = hooks.get(full, (None, None))
                layer = _layer_of(short, qual)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, full, layer, before, after))
                else:
                    new = self._wrap(raw, full, layer, before, after)
                    if owner is module:
                        originals[id(raw)] = new
                self._set(owner, attr, new)
        self._rebind_aliases(originals)
        self._install_counters(nc)
        self.installed = True

    def _install_counters(self, nc):
        """Node creations and stream draws are counted, not spanned: they are
        too many and too short to time one by one."""
        tr = self
        node_init = vars(nc.Node)["__init__"]
        next_u64 = vars(nc.Prng)["next_u64"]

        @functools.wraps(node_init)
        def counting_init(node, *args, **kwargs):
            tr.nodes += 1
            node_init(node, *args, **kwargs)

        @functools.wraps(next_u64)
        def counting_next(prng):
            tr.draws += 1
            return next_u64(prng)

        self._set(nc.Node, "__init__", counting_init)
        self._set(nc.Prng, "next_u64", counting_next)

    def _set(self, owner, attr, value):
        self._patches.append(("attr", owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind_aliases(self, originals):
        for module in self.modules + self.alias_modules:
            for name, value in list(vars(module).items()):
                if id(value) in originals:
                    self._set(module, name, originals[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            self._patches.append(("item", value, key, item))
                            value[key] = originals[id(item)]

    def uninstall(self):
        for kind, owner, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._patches = []
        self.installed = False

    def unpatched_aliases(self):
        """Module attributes and module-level dict values that still hold the
        original of a wrapped function; empty while installed."""
        wrapped = {id(p[3]) for p in self._patches if inspect.isfunction(p[3])}
        misses = []
        for module in self.modules + self.alias_modules:
            for name, value in vars(module).items():
                if id(value) in wrapped:
                    misses.append("%s.%s" % (module.__name__, name))
                elif isinstance(value, dict):
                    misses += ["%s.%s[%r]" % (module.__name__, name, key)
                               for key, item in value.items() if id(item) in wrapped]
        return misses

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id):
        if self.stack:
            raise RuntimeError("op started inside an open span")
        self.op_id = op_id
        self.spans = []
        self._reset_counters()

    def end_op(self, wall_s, bytes_written=0):
        """Fold the op's spans into per-layer figures; returns the record."""
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        for rec in spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        self_s = {}
        entries = {}
        tape_nodes = {}
        covered = 0.0
        for i, rec in enumerate(spans):
            layer = self.layers[rec[1]]
            dur = rec[3] - rec[2]
            self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
            parent = rec[4]
            if parent < 0:
                covered += dur
            if parent < 0 or spans[parent][1] != rec[1]:
                entries[layer] = entries.get(layer, 0) + 1
            anc = parent
            while anc >= 0 and spans[anc][1] != rec[1]:
                anc = spans[anc][4]
            if anc < 0:  # outermost span of its layer
                tape_nodes[layer] = tape_nodes.get(layer, 0) + rec[6] - rec[5]
        record = {
            "op": self.op_id, "wall_s": wall_s, "covered_s": covered,
            "self_s": self_s, "entries": entries, "tape_nodes": tape_nodes,
            "nodes": self.nodes, "draws": self.draws, "dense_bytes": self.dense_bytes,
            "vjp_evaluated": self.vjp_evaluated, "vjp_useful": self.vjp_useful,
            "structural_builds": self.struct_builds,
            "structural_distinct": len(self.struct_seen),
            "bytes_written": int(bytes_written), "spans": n,
        }
        if self.op_id == "setup" or self.op_id < KEEP_OPS:
            self.kept[str(self.op_id)] = [
                (self.funcs[r[0]] if r[0] >= 0 else BOOKKEEPING, r[2], r[3], r[4], self.op_id)
                for r in spans]
        self.ops.append(record)
        self.spans = []
        self.struct_seen = []
        return record

    def reached(self):
        return {name: self.calls[i] for i, name in enumerate(self.funcs)}


def _same_matrix(a, b):
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return (a.rows, a.cols) == (b.rows, b.cols) and a.triplets == b.triplets


def rpn2_modules():
    """Every module of the rpn2 package, the CLI included."""
    import rpn2
    return [importlib.import_module("rpn2." + name) for name in rpn2.__all__ + ["cli"]]
