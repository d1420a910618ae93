"""Per-layer tracing for the benchmark, installed from outside the program.

`install()` wraps the public functions of each cobcalc layer in every
namespace that bound them (modules that did `from .x import f` hold their own
reference, so patching only the defining module would miss internal calls).
Timed wrappers record calls, inclusive time and self time; the hot kernel
methods get counting wrappers only, which keeps the overhead low.
`metrics()` turns what was recorded into `<module>.<function>.<stat>` values.
"""

import importlib
import sys
from time import perf_counter

# Functions timed at their layer boundary, by module.
TIMED = {
    "fixedpoint": (
        "verify_L2_relations", "verify_lmod2", "verify_ks", "verify_trivial_normal",
        "verify_euler", "verify_additive", "verify_decomposable",
    ),
    "chow_models": (
        "quillen_pushforward", "chern_number", "euler_number", "fundamental_class",
        "build_model",
    ),
    "symmfunc": ("total_P_deformed", "total_P", "q_alpha", "cf_class"),
    "core_algebra": ("hnf_rows", "TruncatedSeries.compose", "TruncatedSeries.reversion"),
    "fgl": ("universal_fgl", "formal_mult"),
    "cobordism": ("lazard_piece", "mod2_theory_piece", "decomposable_test"),
    "cli": ("main",),
}

# Hot kernel methods: counted, not timed.
COUNTED = {
    "core_algebra": ("BDomain.mul",),
    "chow_models": ("ChowModel.mul",),
}

# Per-layer metrics the benchmark reports, in BENCHMARK.json order.
METRICS = (
    "fixedpoint.verify_L2_relations.total_s",
    "fixedpoint.verify_lmod2.total_s",
    "fixedpoint.verify_ks.total_s",
    "fixedpoint.verify_trivial_normal.total_s",
    "fixedpoint.verify_euler.total_s",
    "fixedpoint.verify_additive.total_s",
    "fixedpoint.verify_decomposable.total_s",
    "chow_models.quillen_pushforward.calls",
    "chow_models.quillen_pushforward.total_s",
    "chow_models.quillen_pushforward.self_s",
    "chow_models.chern_number.calls",
    "chow_models.chern_number.total_s",
    "chow_models.euler_number.total_s",
    "chow_models.fundamental_class.calls",
    "chow_models.fundamental_class.total_s",
    "chow_models.build_model.calls",
    "chow_models.build_model.hit_ratio",
    "chow_models.ChowModel.mul.calls",
    "symmfunc.total_P_deformed.calls",
    "symmfunc.total_P_deformed.total_s",
    "symmfunc.total_P_deformed.self_s",
    "symmfunc.total_P.calls",
    "symmfunc.total_P.total_s",
    "symmfunc.q_alpha.calls",
    "symmfunc.q_alpha.total_s",
    "symmfunc.q_alpha.hit_ratio",
    "symmfunc.cf_class.calls",
    "symmfunc.cf_class.total_s",
    "core_algebra.BDomain.mul.calls",
    "core_algebra.TruncatedSeries.compose.calls",
    "core_algebra.TruncatedSeries.compose.total_s",
    "core_algebra.TruncatedSeries.reversion.total_s",
    "core_algebra.hnf_rows.calls",
    "core_algebra.hnf_rows.total_s",
    "fgl.universal_fgl.total_s",
    "fgl.universal_fgl.hit_ratio",
    "fgl.formal_mult.total_s",
    "cobordism.lazard_piece.total_s",
    "cobordism.lazard_piece.hit_ratio",
    "cobordism.lazard_piece.size",
    "cobordism.mod2_theory_piece.total_s",
    "cobordism.mod2_theory_piece.hit_ratio",
    "cobordism.decomposable_test.total_s",
    "cli.main.self_s",
)


class _Stat:
    __slots__ = ("calls", "total", "own", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0  # self time: total minus traced children
        self.depth = 0


_stats = {}
_children = []  # per open span: time spent in its traced child spans
_caches = {}  # name -> lru_cache object whose cache_info() gives hits/misses
_model_keys = set()  # distinct spec keys seen by build_model
_lattices = {}  # lazard_piece arguments -> (generator count, rank)
_missing = []


def _timed(name, fn):
    st = _stats.setdefault(name, _Stat())
    children = _children

    def wrapper(*args, **kwargs):
        st.calls += 1
        st.depth += 1
        children.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            st.own += dt - children.pop()
            st.depth -= 1
            if st.depth == 0:  # recursive calls are inside the outer span
                st.total += dt
            if children:
                children[-1] += dt

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(name, fn):
    st = _stats.setdefault(name, _Stat())

    def wrapper(*args, **kwargs):
        st.calls += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _keyed_build_model(fn):
    def wrapper(spec):
        _model_keys.add(spec.canonical().key())
        return fn(spec)

    return wrapper


def _sized_lazard_piece(fn):
    def wrapper(*args, **kwargs):
        piece = fn(*args, **kwargs)
        _lattices[(args, tuple(sorted(kwargs.items())))] = (len(piece.generators), piece.rank)
        return piece

    return wrapper


def _rebind(orig, repl):
    """Point every cobcalc namespace that holds `orig` at `repl`, including
    module-level dicts such as the verifier table."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "cobcalc" or modname.startswith("cobcalc.")):
            continue
        ns = vars(mod)
        for attr, val in list(ns.items()):
            if val is orig:
                ns[attr] = repl
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if item is orig:
                        val[key] = repl


def _install_one(modname, dotted, make):
    mod = sys.modules["cobcalc." + modname]
    name = modname + "." + dotted
    if "." in dotted:
        clsname, meth = dotted.split(".")
        cls = getattr(mod, clsname, None)
        if cls is None or meth not in vars(cls):
            _missing.append(name)
            return
        setattr(cls, meth, make(name, vars(cls)[meth]))
        return
    orig = getattr(mod, dotted, None)
    if orig is None:
        _missing.append(name)
        return
    if hasattr(orig, "cache_info"):
        _caches[name] = orig
    inner = orig
    if name == "chow_models.build_model":
        inner = _keyed_build_model(orig)
    elif name == "cobordism.lazard_piece":
        inner = _sized_lazard_piece(orig)
    _rebind(orig, make(name, inner))


def install():
    """Import every layer and wrap its traced functions; call once, before
    any work is done."""
    for modname in set(TIMED) | set(COUNTED):
        importlib.import_module("cobcalc." + modname)
    for modname, names in TIMED.items():
        for dotted in names:
            _install_one(modname, dotted, _timed)
    for modname, names in COUNTED.items():
        for dotted in names:
            _install_one(modname, dotted, _counted)


def raw():
    """What was recorded, as plain JSON-able data that `merge` can add up
    across processes."""
    out = {"stats": {}, "caches": {}, "missing": list(_missing)}
    for name, st in _stats.items():
        out["stats"][name] = [st.calls, st.total, st.own]
    for name, fn in _caches.items():
        info = fn.cache_info()
        out["caches"][name] = [info.hits, info.misses, info.currsize]
    if "chow_models.build_model" in _stats:
        calls = _stats["chow_models.build_model"].calls
        out["caches"]["chow_models.build_model"] = [calls - len(_model_keys), len(_model_keys), len(_model_keys)]
    out["lattices"] = sorted([list(v) for v in _lattices.values()])
    return out


def merge(raws):
    """Sum the records of several processes (each process has its own
    caches, so hits and misses add up)."""
    out = {"stats": {}, "caches": {}, "missing": [], "lattices": []}
    for r in raws:
        for name, vals in r["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, vals in r["caches"].items():
            acc = out["caches"].setdefault(name, [0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        out["missing"] = sorted(set(out["missing"]) | set(r["missing"]))
        out["lattices"] += r["lattices"]
    return out


def metrics(rec):
    """The METRICS values from a (merged) record.  A function the program no
    longer has reads as zero calls and zero time."""
    out = {}
    for metric in METRICS:
        name, stat = metric.rsplit(".", 1)
        calls, total, self_s = rec["stats"].get(name, (0, 0.0, 0.0))
        if stat == "calls":
            val, unit = calls, "count"
        elif stat == "total_s":
            val, unit = total, "s"
        elif stat == "self_s":
            val, unit = self_s, "s"
        elif stat == "hit_ratio":
            hits, misses, _ = rec["caches"].get(name, (0, 0, 0))
            val, unit = (hits / (hits + misses) if hits + misses else 0.0), "ratio"
        elif stat == "size":
            val, unit = sum(gens for gens, _rank in rec["lattices"]), "count"
        else:
            raise ValueError(metric)
        out[metric] = {"value": val, "unit": unit}
    return out
