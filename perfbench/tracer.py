"""Per-layer tracing by rebinding the package's public names at run time.

Nothing under src/ is edited. Each traced function or method is replaced by
a wrapper that counts calls and records a span (name, start, end, parent
span, op id) in memory. Every binding of a function is replaced, including
the copies that ``from .x import y`` leaves in other modules, so calls are
counted whichever name they go through. Self time is a span's duration
minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, qualified name) pairs that get a span; the metric prefix is
# "<module>.<qualified name>"
SPANS = [
    ("qfield", "prime_divisors"), ("qfield", "primes_above"),
    ("qfield", "PrimeIdeal.val"), ("qfield", "reduce_mod"),
    ("polyring", "resultant"), ("polyring", "interpolate"), ("polyring", "gcd"),
    ("linalg", "smith_normal_form"), ("linalg", "hnf"), ("linalg", "fp_rank"),
    ("linalg", "fp_kernel"), ("linalg", "fp_solve"),
    ("ellcurve", "Curve.transform"), ("ellcurve", "Curve.map_point"),
    ("ellcurve", "Curve.division_poly"),
    ("tate", "tate_local_data"), ("tate", "component_index"), ("tate", "e_entry"),
    ("isogeny", "tate"), ("isogeny", "isogeny_from_kernel_point"),
    ("isogeny", "dual_isogeny"), ("isogeny", "velu"),
    ("isogeny", "find_isomorphism"), ("isogeny", "classify_place"),
    ("ideals", "class_group"), ("ideals", "LatticeIdeal.is_principal"),
    ("ideals", "fundamental_unit"), ("ideals", "s_unit_lattice"),
    ("ideals", "field_selmer_basis"),
    ("logpic", "LogPic.__init__"), ("logpic", "LogPic.class_coords"),
    ("logpic", "LogPicTorsion.__init__"),
    ("localfield", "LocalUnitGroup.__init__"), ("localfield", "LocalUnitGroup.coords"),
    ("pairing", "log_pairing"), ("pairing", "pairing_group"), ("pairing", "bad_places"),
    ("descent", "DescentContext.__init__"), ("descent", "selmer_phi"),
    ("descent", "H1Coordinates.__init__"), ("descent", "KummerMap.coords"),
    ("descent", "miller"), ("descent", "psi"), ("descent", "descent_report"),
    ("descent", "quadratic_point_search"),
    ("cli", "main"),
]
# arithmetic dunders of FieldElement, counted together without spans
FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__")
# module-level caches whose growth tells a miss from a hit
CACHES = {"isogeny.tate": ("isogeny", "_TATE_CACHE"),
          "ideals.class_group": ("ideals", "_CLASS_GROUP_CACHE")}
LUG_MODES = ("tame", "log", "wild")


def lug_mode(lug) -> str:
    """The LocalUnitGroup branch a built object took."""
    if lug.vp == 0:
        return "tame"
    return "log" if lug.pr.e < lug.p - 1 else "wild"


def _resolve(modname, qualname):
    """(module or class that holds the name, attribute name)."""
    owner = sys.modules["logdescent." + modname]
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(original, replacement, modules):
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{q}" for m, q in SPANS]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.counters = {"qfield.FieldElement.ops": 0, "ellcurve.Point.__add__.calls": 0,
                         "descent.H1Coordinates.places": 0}
        self.counters.update({f"localfield.LocalUnitGroup.{m}": 0 for m in LUG_MODES})
        self.hits = {name: 0 for name in CACHES}
        self.op = -1          # id of the op running; -1 during set-up
        self.paused = False   # set while the benchmark checks answers
        self.t0 = time.perf_counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []   # [span index, time covered by children]

    # -- wrappers ----------------------------------------------------------

    def _span(self, nid, f, post=None):
        tr = self
        starts, ends = self.span_start, self.span_end

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if tr.paused:
                return f(*args, **kwargs)
            stack = tr._stack
            idx = len(starts)
            tr.calls[nid] += 1
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_op.append(tr.op)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            starts.append(t0)
            try:
                result = f(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                ends[idx] = t1
                tr.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _count(self, key, f):
        tr = self
        counters = self.counters

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if not tr.paused:
                counters[key] += 1
            return f(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target; call once, after the package is imported."""
        modules = [m for name, m in sys.modules.items() if name.startswith("logdescent.")]
        posts = {"localfield.LocalUnitGroup.__init__": self._post_lug,
                 "descent.H1Coordinates.__init__": self._post_h1}
        for nid, (modname, qualname) in enumerate(SPANS):
            name = self.names[nid]
            owner, attr = _resolve(modname, qualname)
            original = owner.__dict__[attr]
            if name in CACHES:
                wrapped = self._span(nid, self._cache_probe(name, original))
            else:
                wrapped = self._span(nid, original, posts.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                _rebind(original, wrapped, modules)
        FE = sys.modules["logdescent.qfield"].FieldElement
        for dunder in FIELD_OPS:
            if dunder in FE.__dict__:
                setattr(FE, dunder, self._count("qfield.FieldElement.ops", FE.__dict__[dunder]))
        Point = sys.modules["logdescent.ellcurve"].Point
        Point.__add__ = self._count("ellcurve.Point.__add__.calls", Point.__add__)

    def _cache_probe(self, name, f):
        modname, cache_name = CACHES[name]
        cache = getattr(sys.modules["logdescent." + modname], cache_name, None)
        hits = self.hits

        @functools.wraps(f)
        def probe(*args, **kwargs):
            before = len(cache) if cache is not None else -1
            result = f(*args, **kwargs)
            if cache is not None and len(cache) == before and not self.paused:
                hits[name] += 1
            return result

        return probe

    def _post_lug(self, args, _):
        self.counters[f"localfield.LocalUnitGroup.{lug_mode(args[0])}"] += 1

    def _post_h1(self, args, _):
        self.counters["descent.H1Coordinates.places"] += len(args[0].places)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for nid, name in enumerate(self.names):
            if name != "cli.main":
                out[f"{name}.calls"] = (self.calls[nid], "count")
            out[f"{name}.self_ms"] = (self.self_s[nid] * 1e3, "ms")
        for name in CACHES:
            calls = self.calls[self.names.index(name)]
            out[f"{name}.hit_ratio"] = (self.hits[name] / calls if calls else 0.0, "ratio")
        for key, value in self.counters.items():
            out[key] = (value, "count")
        return out

    def write(self, path) -> None:
        """All spans, times in microseconds from tracer creation."""
        us = lambda seq: [round((t - self.t0) * 1e6) for t in seq]
        doc = {"schema": 1, "names": self.names,
               "span": {"name": list(self.span_name), "parent": list(self.span_parent),
                        "op": list(self.span_op), "start_us": us(self.span_start),
                        "end_us": us(self.span_end)}}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
