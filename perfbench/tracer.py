"""Outside-in layer trace for the benchmark's traced passes.

The tracer rebinds public functions of ``pblocks`` at every place a caller
looks them up (module globals and class attributes), so spans are recorded
around the calls into each layer without editing the program.  Spans are
kept in memory as ``[name, start, end, parent, op]`` and written out once the
pass ends.  A call into a stage that is already open (``mat_rank`` calling
``mat_rref``, ``conjugacy_classes`` calling ``elements``) is folded into the
outer span, so a stage's time is never counted twice.

Per-element field and cyclotomic operations are counted, never timed:
timing millions of sub-microsecond calls would distort the run.  Their time
stays in the self time of whichever span called them.
"""

import sys
import time
from collections import Counter

from pblocks import cyclotomic, ffield, perm

# layers that record spans; cyclotomic work is counted only, so its time is
# part of the self time of its callers
SPAN_LAYERS = ("perm", "ffield", "linalg", "chartab", "modrep", "blocks", "harness")

# span name -> functions it wraps, as (module, attribute) for module-level
# functions or (class, attribute) for methods
SPANS = {
    "perm.classes": [(perm.PermGroup, "conjugacy_classes"), (perm.PermGroup, "elements")],
    "perm.defect_group": [(perm.PermGroup, "centralizer"), (perm.PermGroup, "sylow"),
                          ("pblocks.perm", "sectional_rank")],
    "chartab.table": [("pblocks.chartab", "character_table")],
    "ffield.poly_factor": [("pblocks.ffield", "poly_factor")],
    "linalg.rref": [("pblocks.linalg", name) for name in (
        "mat_rref", "mat_rank", "mat_inv", "mat_left_kernel", "mat_right_kernel",
        "mat_solve_left")],
    "linalg.charpoly": [("pblocks.linalg", "mat_charpoly")],
    "linalg.mat_mul": [("pblocks.linalg", "mat_mul")],
    "modrep.simple_modules": [("pblocks.modrep", "simple_modules")],
    "modrep.chop": [("pblocks.modrep", "composition_factors")],
    "modrep.iso": [("pblocks.modrep", "module_iso")],
    "modrep.brauer_value": [("pblocks.modrep", "brauer_value")],
    "blocks.block_system": [("pblocks.blocks", "block_system")],
    "harness.corpus": [("pblocks.harness", "run_corpus")],
    "harness.analysis": [("pblocks.harness", "analyze_group")],
    "harness.verify": [("pblocks.harness", "verify_system")],
    "harness.scenario": [("pblocks.harness", "run_scenario")],
    "harness.fixture": [("pblocks.harness", "fixture_checks")],
}

FIELD_BACKENDS = {"prime": ffield._PrimeField, "table": ffield._TableField,
                  "generic": ffield._GenericField}
FIELD_OPS = ("add", "neg", "mul", "vadd", "vmul")
LINALG_SPANS = ("linalg.rref", "linalg.charpoly", "linalg.mat_mul")


def _op_of(name: str, args: tuple, kwargs: dict):
    """Return the operation id a harness entry point works on, or None."""
    if name == "harness.analysis":
        group_name = kwargs.get("name", args[3] if len(args) > 3 else "group")
        prime = kwargs.get("p", args[1] if len(args) > 1 else None)
        return f"{group_name}:{prime}"
    if name == "harness.scenario":
        return f"scenario:{args[0].name}"
    if name == "harness.fixture":
        return f"fixture:{args[0].name}"
    return None


def _rebind(original, replacement) -> None:
    """Replace every binding of a function in the loaded pblocks modules."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "pblocks" or modname.startswith("pblocks.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self.op_facts = {}
        self._stack = []
        self._open = set()
        self._build = None
        self._undo = []

    # -- recording

    def set_op(self, op: str) -> None:
        """Mark the operation that the following spans belong to."""
        self.op = op

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        """Run fn inside a span, unless a span of the same name is already open."""
        if name in self._open:
            return fn(*args, **kwargs)
        op = _op_of(name, args, kwargs)
        outer_op = self.op
        if op is not None:
            self.op = op
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._open.add(name)
        try:
            result = fn(*args, **kwargs)
            self._after(name, args, result)
            return result
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._open.discard(name)
            self.op = outer_op

    def _fact_max(self, key: str, value: int) -> None:
        facts = self.op_facts.setdefault(self.op, {})
        facts[key] = max(facts.get(key, 0), value)

    def _after(self, name: str, args: tuple, result) -> None:
        """Update the counters that need a stage's arguments or result."""
        counts = self.counts
        if name in LINALG_SPANS and args[0].field.q == 2:
            counts["linalg.gf2_calls"] += 1
        elif name == "modrep.chop":
            counts["modrep.chop_input_dim"] += args[0].dim
            self._fact_max("max_module_dim", args[0].dim)
            if self._build is not None and self._build["perm_factors"] is None:
                self._build["perm_factors"] = len(result)
        elif name == "modrep.iso" and result is not None:
            counts["modrep.iso_matches"] += 1
            if self._build is not None and self._build["perm_new"] is None:
                self._build["matches"] += 1

    def _simple_modules(self, fn, args: tuple, kwargs: dict):
        """Trace one tensor closure and count the simple modules its products added.

        Every factor the closure registers is either new or matched by one
        ``module_iso`` call, so the simples found before the first tensor
        product are the permutation module's factors minus those matches.
        """
        outer = self._build
        self._build = {"perm_factors": None, "matches": 0, "perm_new": None}
        try:
            found = self.call("modrep.simple_modules", fn, args, kwargs)
            if self._build["perm_new"] is not None:
                self.counts["modrep.tensor_new"] += len(found) - self._build["perm_new"]
            context = args[1] if len(args) > 1 else kwargs["context"]
            self._fact_max("field_q", context.field.q)
            return found
        finally:
            self._build = outer

    def _tensor_module(self, fn, a, b):
        self.counts["modrep.tensor_tried"] += 1
        build = self._build
        if build is not None and build["perm_new"] is None:
            build["perm_new"] = build["perm_factors"] - build["matches"]
        self._fact_max("max_module_dim", a.dim * b.dim)
        return fn(a, b)

    # -- installing

    def _swap(self, owner, attr: str, make) -> None:
        """Replace a method (owner is a class) or a module function (owner is a module name).

        ``make`` receives the original and returns its replacement.
        """
        if isinstance(owner, type):
            self._undo.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, make(getattr(owner, attr)))
        else:
            original = getattr(sys.modules[owner], attr)
            replacement = make(original)
            self._undo.append((original, replacement))
            _rebind(original, replacement)

    def install(self) -> "Tracer":
        """Wrap every traced entry point; returns self."""
        def spanned(name):
            def make(fn):
                if name == "modrep.simple_modules":
                    return lambda *args, **kwargs: self._simple_modules(fn, args, kwargs)
                return lambda *args, **kwargs: self.call(name, fn, args, kwargs)
            return make

        for name, targets in SPANS.items():
            for owner, attr in targets:
                self._swap(owner, attr, spanned(name))
        self._swap("pblocks.modrep", "tensor_module",
                   lambda fn: lambda a, b: self._tensor_module(fn, a, b))
        for kind, cls in FIELD_BACKENDS.items():
            for op in FIELD_OPS:
                self._swap(cls, op, self._counting(f"ffield.{kind}.{op}_calls"))
        for attr, key in (("__init__", "cyc_init"), ("__add__", "cyc_add"),
                          ("__radd__", "cyc_add"), ("__mul__", "cyc_mul"),
                          ("__rmul__", "cyc_mul")):
            self._swap(cyclotomic.Cyc, attr, self._counting(f"cyclotomic.{key}"))
        return self

    def _counting(self, key: str):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def uninstall(self) -> None:
        """Restore every binding the tracer replaced."""
        for entry in reversed(self._undo):
            if len(entry) == 3:
                owner, attr, previous = entry
                if previous is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, previous)
            else:
                original, replacement = entry
                _rebind(replacement, original)
        self._undo.clear()

    # -- summarising

    def self_times(self) -> list:
        """Return each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce one traced pass to the per-layer metrics of the benchmark."""
    totals = Counter()
    calls = Counter()
    self_by_name = Counter()
    for (name, start, end, _, _), own in zip(tracer.spans, tracer.self_times()):
        totals[name] += end - start
        calls[name] += 1
        self_by_name[name] += own
    counts = tracer.counts
    linalg_calls = sum(calls[name] for name in LINALG_SPANS)
    out = {
        "perm.classes_s": totals["perm.classes"],
        "perm.classes_calls": calls["perm.classes"],
        "perm.defect_group_s": totals["perm.defect_group"],
        "chartab.table_s": totals["chartab.table"],
        "chartab.table_calls": calls["chartab.table"],
        "cyclotomic.cyc_ops": (counts["cyclotomic.cyc_init"] + counts["cyclotomic.cyc_add"]
                               + counts["cyclotomic.cyc_mul"]),
        "modrep.simple_modules_s": totals["modrep.simple_modules"],
        "modrep.chop_s": totals["modrep.chop"],
        "modrep.iso_s": totals["modrep.iso"],
        "modrep.brauer_value_s": totals["modrep.brauer_value"],
        "modrep.chop_calls": calls["modrep.chop"],
        "modrep.chop_input_dim": counts["modrep.chop_input_dim"],
        "modrep.iso_calls": calls["modrep.iso"],
        "modrep.tensor_tried": counts["modrep.tensor_tried"],
        "modrep.brauer_value_calls": calls["modrep.brauer_value"],
        "modrep.iso_match_ratio": _ratio(counts["modrep.iso_matches"], calls["modrep.iso"]),
        "modrep.tensor_new_ratio": _ratio(counts["modrep.tensor_new"],
                                          counts["modrep.tensor_tried"]),
        "modrep.max_module_dim": max(
            (f.get("max_module_dim", 0) for f in tracer.op_facts.values()), default=0),
        "modrep.field_q": max(
            (f.get("field_q", 0) for f in tracer.op_facts.values()), default=0),
        "ffield.poly_factor_s": totals["ffield.poly_factor"],
        "ffield.poly_factor_calls": calls["ffield.poly_factor"],
        "linalg.rref_s": totals["linalg.rref"],
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.charpoly_s": totals["linalg.charpoly"],
        "linalg.charpoly_calls": calls["linalg.charpoly"],
        "linalg.mat_mul_s": totals["linalg.mat_mul"],
        "linalg.mat_mul_calls": calls["linalg.mat_mul"],
        "linalg.gf2_packed_share": _ratio(counts["linalg.gf2_calls"], linalg_calls),
        "blocks.assembly_self_s": self_by_name["blocks.block_system"],
        "harness.verify_s": totals["harness.verify"],
        "harness.scenarios_s": totals["harness.scenario"],
        "harness.fixtures_s": totals["harness.fixture"],
    }
    for kind in FIELD_BACKENDS:
        for op in FIELD_OPS:
            key = f"ffield.{kind}.{op}_calls"
            out[key] = counts[key]
    for layer in SPAN_LAYERS:
        out[f"{layer}.self_s"] = sum(
            own for name, own in self_by_name.items() if name.split(".")[0] == layer)
    return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
