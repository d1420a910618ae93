"""cobcalc: exact formal-group-law and characteristic-class calculator with
fixed-point congruence verifiers for involutions on smooth projective
varieties.

`import cobcalc` loads no layer.  The first access to a public name
(`cobcalc.verify_all`, `from cobcalc import X`) loads every layer once and
binds all of `__all__`; later accesses are plain lookups.  A submodule name
(`cobcalc.fgl`) loads only that submodule and what it imports, so a CLI
command or a library caller that reaches one layer does not load the
others."""

import importlib
import sys

__version__ = "0.1.0"

# the layers and the public names of each, in load order
_EXPORTS = {
    "core_algebra": (
        "ZZ", "ZHALF", "TRING", "TEPS", "IntegerLattice", "TruncatedSeries",
        "b_ring", "hnf_rows", "int_mod", "partitions",
    ),
    "fgl": (
        "FormalGroupLaw", "additive_fgl", "b_transport", "cha_b_image", "cha_fgl",
        "check_law_series", "chx_b_image", "chx_fgl", "formal_inverse",
        "formal_mult", "specialize", "universal_fgl", "universal_fgl_mod_p",
    ),
    "symmfunc": ("total_P", "total_P_deformed"),
    "chow_models": (
        "ChowModel", "VarietySpec", "VirtualSplitBundle", "additive_chern_number",
        "build_model", "chern_number", "chern_total",
        "euler_number", "fundamental_class",
        "quillen_pushforward", "tangent_bundle",
    ),
    "cobordism": (
        "LazardDegreePiece", "binomial_middle_gcd", "decomposable_test",
        "lazard_basis", "lazard_piece", "mod2_theory_member",
        "mod2_theory_piece", "p_typical_chern_check",
        "p_typical_kernel_check", "prime_power_root",
    ),
    "fixedpoint": (
        "BUILTIN_CATALOG", "VERIFIERS", "FixedComponent", "MuTwoActionModel",
        "builtin_action", "verify_L2_relations", "verify_additive", "verify_all",
        "verify_decomposable", "verify_euler", "verify_ks", "verify_lmod2",
        "verify_trivial_normal",
    ),
    "report": ("Check", "Report"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__ += ["clear_caches", "__version__"]


def _load_all():
    """Import every layer and bind each public name into the package."""
    ns = globals()
    for layer, names in _EXPORTS.items():
        mod = importlib.import_module("." + layer, __name__)
        for name in names:
            ns[name] = getattr(mod, name)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in __all__:
        _load_all()
        return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))


def clear_caches():
    """Empty every process-lifetime cache of the loaded layers, so that later
    calls compute from scratch: the model cache, which takes each model's
    memos with it, and every `lru_cache` of the package (laws, lattice
    pieces, the `lmod2` twisted series over the integers, the
    b_transport image tables, the `specialize` memo, partitions).  A layer
    not yet loaded has nothing cached, and is not loaded here.  A model or
    law a caller still holds keeps its own memos.  The universal law's
    coefficient store, with its log-power and Horner row tables, and the
    interned monomial tables with their names stay: they are append-only
    tables that every law and every sparse product reads, the same whatever
    is asked first."""
    chow_models = sys.modules.get(__name__ + ".chow_models")
    if chow_models is not None:
        chow_models._model_cache.clear()
    for layer in _EXPORTS:
        mod = sys.modules.get(__name__ + "." + layer)
        if mod is None:
            continue
        for obj in list(vars(mod).values()):
            # a wrapper that sets __wrapped__ (functools.wraps) may stand in
            # front of a cached function
            while obj is not None:
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
                obj = getattr(obj, "__wrapped__", None)
