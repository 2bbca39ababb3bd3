"""Per-layer tracing of one workload process, installed from outside qsu2.

The tracer replaces public functions and methods of the qsu2 modules with
wrappers that record spans, and reads cache sizes through ``cache_info()``
and the sizes of the ``PWTable`` tables.  The library itself is not
changed.  A module-level function is replaced in every ``qsu2`` module
that holds it, so a name imported with ``from .fourier import
fourier_transform`` is traced as well; calls that the benchmark makes
through a name it imported itself are not, so the workloads call traced
functions only through the library.

Spans are aggregated per name as they close: ``calls`` counts outermost
calls (a call nested in a span of the same name is not counted again),
``s`` is their inclusive time, and ``self_s`` is the time of every span of
the name minus the time of its child spans.  A call nested in a span of
the same name runs untraced, so its time stays in the outer span.  All
QScalar/QRadical arithmetic and the public qarith functions share the one
name ``qarith``: ``qarith.ops`` counts the arithmetic entered from other
modules, not the operations qarith runs inside itself.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
import time

# (metric, unit) for every per-layer metric, in report order.
METRICS = [
    ("qarith.ops", "count"), ("qarith.s", "s"),
    ("qarith.reductions", "count"), ("qarith.den_degree_max", "count"),
    ("qarith.sqrt_scalar.calls", "count"), ("qarith.sqrt_scalar.s", "s"),
    ("calculus.right_multiply.calls", "count"),
    ("calculus.right_multiply.s", "s"),
    ("calculus.right_multiply.self_s", "s"),
    ("calculus.d_generators.calls", "count"), ("calculus.d_generators.s", "s"),
    ("calculus.symbol_tables.calls", "count"),
    ("calculus.symbol_tables.s", "s"),
    ("calculus.admissibility.s", "s"), ("calculus.growth_table.s", "s"),
    ("multiplier.apply.calls", "count"), ("multiplier.apply.s", "s"),
    ("multiplier.apply.self_s", "s"),
    ("fourier.transform.calls", "count"), ("fourier.transform.s", "s"),
    ("fourier.transform.self_s", "s"),
    ("fourier.inverse.calls", "count"), ("fourier.inverse.s", "s"),
    ("peterweyl.pw_expand.calls", "count"), ("peterweyl.pw_expand.s", "s"),
    ("peterweyl.pw_expand.self_s", "s"),
    ("algebra.haar.calls", "count"), ("algebra.haar.s", "s"),
    ("algebra.mul.calls", "count"), ("algebra.mul.s", "s"),
    ("peterweyl.clebsch.calls", "count"), ("peterweyl.clebsch.s", "s"),
    ("spectral.scan.s", "s"), ("spectral.scan_rows", "count"),
    ("fourier.hs_norm.calls", "count"), ("fourier.hs_norm.s", "s"),
    ("fourier.quadrature.calls", "count"), ("fourier.quadrature.s", "s"),
    ("algebra.cache_entries", "count"),
    ("algebra.mono_mul.hit_ratio", "ratio"),
    ("peterweyl.cache_entries", "count"),
    ("serialize.csv.calls", "count"), ("serialize.csv.bytes", "bytes"),
    ("serialize.s", "s"), ("cli.command.s", "s"),
    ("trace.overhead_s", "s"),
]

_ARITHMETIC = ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
               "__truediv__", "__rtruediv__", "evaluate")
_QSCALAR_METHODS = _ARITHMETIC + ("__pow__",)
_QRADICAL_METHODS = _ARITHMETIC + ("__rmul__", "square")
_QARITH_FUNCTIONS = ("q_power", "q_int", "from_fraction", "evaluate",
                     "bq_asymptotic_ratio")
_SERIALIZE_FUNCTIONS = ("scalar_to_json", "scalar_from_json",
                        "element_to_json", "element_from_json",
                        "fourier_array_to_json", "fourier_array_from_json",
                        "pw_entry_to_json", "pw_entry_from_json",
                        "dump_json", "load_json")


class Tracer:
    """Wraps the qsu2 layers of this process; ``restore()`` undoes it."""

    def __init__(self):
        self.stats = {}         # name -> [outermost calls, inclusive s, self s]
        self._active = {}       # name -> number of open spans
        self._stack = []        # open spans: [start, child seconds]
        self._undo = []
        self.reductions = 0
        self.den_degree_max = 0
        self.csv_bytes = 0
        self.scan_rows = 0
        self.tables = []

    # -- installation -------------------------------------------------------

    def install(self):
        # qsu2.calculus is also the name of a function the package exports
        (algebra, calculus, cli, fourier, multiplier, peterweyl, qarith,
         serialize, spectral) = (importlib.import_module(f"qsu2.{m}") for m in (
            "algebra", "calculus", "cli", "fourier", "multiplier",
            "peterweyl", "qarith", "serialize", "spectral"))
        for cls, attrs in ((qarith.QScalar, _QSCALAR_METHODS),
                           (qarith.QRadical, _QRADICAL_METHODS)):
            for attr in attrs:
                self._method(cls, attr, ("qarith",))
        for attr in _QARITH_FUNCTIONS:
            self._function(qarith, attr, ("qarith",))
        self._function(qarith, "sqrt_scalar", ("qarith", "qarith.sqrt_scalar"))
        self._canonicalize(qarith.QScalar)

        self._method(algebra.AlgebraElement, "__mul__", ("algebra.mul",))
        self._method(algebra.AlgebraElement, "__rmul__", ("algebra.mul",))
        self._function(algebra, "multiply", ("algebra.mul",))
        self._function(algebra, "haar", ("algebra.haar",))

        self._method(peterweyl.PWTable, "pw_expand", ("peterweyl.pw_expand",))
        self._method(peterweyl.PWTable, "clebsch_coefficients",
                     ("peterweyl.clebsch",))
        self._method(peterweyl.PWTable, "clebsch_squared",
                     ("peterweyl.clebsch",))
        self._method(peterweyl.PWTable, "__init__", (),
                     after=lambda res, args: self.tables.append(args[0]))
        self.tables.extend(o for o in gc.get_objects()
                           if isinstance(o, peterweyl.PWTable))

        self._function(fourier, "fourier_transform", ("fourier.transform",))
        self._function(fourier, "inverse_fourier", ("fourier.inverse",))
        self._function(fourier, "hs_norm_sq", ("fourier.hs_norm",))
        self._function(fourier, "hs_norm_sq_float", ("fourier.hs_norm",))
        self._function(fourier, "lp_norm_classical", ("fourier.quadrature",))
        self._method(fourier.SU2Grid, "evaluate", ("fourier.quadrature",))
        self._method(fourier.SU2Grid, "integrate", ("fourier.quadrature",))

        for attr in ("apply_symbol", "apply_algebraic_symbol"):
            self._function(multiplier, attr, ("multiplier.apply",))

        self._function(spectral, "boundedness_scan", ("spectral.scan",),
                       after=self._count_rows)

        self._method(calculus.Calculus, "right_multiply",
                     ("calculus.right_multiply",))
        self._method(calculus.Calculus, "exterior_d_generators",
                     ("calculus.d_generators",))
        for attr in ("partial_symbols", "commutation_symbols"):
            self._function(calculus, attr, ("calculus.symbol_tables",))
        self._function(calculus, "admissibility_check",
                       ("calculus.admissibility",))
        self._function(calculus, "growth_table", ("calculus.growth_table",))

        self._function(serialize, "write_csv", ("serialize", "serialize.csv"),
                       after=self._count_bytes)
        for attr in _SERIALIZE_FUNCTIONS:
            self._function(serialize, attr, ("serialize",))

        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            self._function(cli, attr, ("cli.command",))
        return self

    def restore(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _method(self, cls, attr, names, after=None):
        self._replace(cls, attr, self._wrap(cls.__dict__[attr], names, after))

    def _function(self, module, attr, names, after=None):
        """Wrap module.attr in every qsu2 module that binds the same object."""
        fn = getattr(module, attr)
        wrapper = self._wrap(fn, names, after)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("qsu2"):
                continue
            for name, val in list(vars(mod).items()):
                if val is fn:
                    self._replace(mod, name, wrapper)

    def _canonicalize(self, cls):
        fn = cls.__dict__["_canonicalize"].__func__

        def canonicalize(num, den):
            out = fn(num, den)
            # the test _canonicalize makes before it runs the gcd
            if (any(c != 0 for c in num.values())
                    and any(c != 0 for e, c in den.items() if e != 0)):
                self.reductions += 1
                self.den_degree_max = max(self.den_degree_max, max(out[1]))
            return out
        self._replace(cls, "_canonicalize", staticmethod(canonicalize))

    def _count_bytes(self, result, args):
        self.csv_bytes += os.path.getsize(args[0])

    def _count_rows(self, result, args):
        self.scan_rows += len(result)

    # -- spans ------------------------------------------------------------------

    def _wrap(self, fn, names, after):
        cells = [self.stats.setdefault(n, [0, 0.0, 0.0]) for n in names]
        active, stack, clock = self._active, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            opened = [n for n in names if not active.get(n)]
            if names and names[0] not in opened:
                opened = []
            if not opened:
                result = fn(*args, **kwargs)
            else:
                for n in opened:
                    active[n] = 1
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    dur = clock() - frame[0]
                    for n, cell in zip(names, cells):
                        if n in opened:
                            active[n] = 0
                            cell[0] += 1
                            cell[1] += dur
                    cells[0][2] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
            if after is not None:
                after(result, args)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- report -----------------------------------------------------------------

    def metrics(self):
        """{metric: value} for every METRICS entry but trace.overhead_s."""
        from qsu2 import algebra, peterweyl
        out = {}
        for name, (calls, incl, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = own
        out["qarith.ops"] = out.pop("qarith.calls")
        out["qarith.reductions"] = self.reductions
        out["qarith.den_degree_max"] = self.den_degree_max
        out["serialize.csv.bytes"] = self.csv_bytes
        out["spectral.scan_rows"] = self.scan_rows
        caches = [f.cache_info() for f in vars(algebra).values()
                  if hasattr(f, "cache_info")]
        out["algebra.cache_entries"] = sum(c.currsize for c in caches)
        mono = algebra._mono_mul.cache_info()
        looked_up = mono.hits + mono.misses
        out["algebra.mono_mul.hit_ratio"] = (mono.hits / looked_up
                                             if looked_up else 0.0)
        entries = peterweyl.PWTable._coaction_powers.cache_info().currsize
        for table in {id(t): t for t in self.tables}.values():
            entries += _table_entries(table)
        out["peterweyl.cache_entries"] = entries
        wanted = {m for m, _ in METRICS} - {"trace.overhead_s"}
        return {m: out.get(m, 0) for m in wanted}


def _table_entries(table):
    """Leaf entries of one PWTable's caches, nested maps counted inside."""
    total = 0
    for cache in (table._entries, table._norms, table._gram,
                  table._star_entries, table._clebsch, table._clebsch_sq,
                  getattr(table, "_gauge_cache", {})):
        for val in cache.values():
            total += len(val) if isinstance(val, dict) else 1
    return total
