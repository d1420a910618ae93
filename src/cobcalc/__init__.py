"""cobcalc: exact formal-group-law and characteristic-class calculator with
fixed-point congruence verifiers for involutions on smooth projective
varieties."""

from .core_algebra import (
    ZZ,
    ZHALF,
    TRING,
    TEPS,
    IntegerLattice,
    TruncatedSeries,
    b_ring,
    hnf_rows,
    int_mod,
    partitions,
)
from .fgl import (
    FormalGroupLaw,
    additive_fgl,
    b_transport,
    cha_b_image,
    cha_fgl,
    check_law_series,
    chx_b_image,
    chx_fgl,
    formal_inverse,
    formal_mult,
    specialize,
    universal_fgl,
    universal_fgl_mod_p,
)
from .symmfunc import total_P, total_P_deformed
from .chow_models import (
    ChowModel,
    VarietySpec,
    VirtualSplitBundle,
    additive_chern_number,
    build_model,
    chern_class,
    chern_number,
    chern_total,
    euler_number,
    fundamental_class,
    quillen_pushforward,
    tangent_bundle,
)
from .cobordism import (
    LazardDegreePiece,
    binomial_middle_gcd,
    decomposable_test,
    lazard_basis,
    lazard_piece,
    mod2_theory_member,
    mod2_theory_piece,
    p_typical_chern_check,
    p_typical_kernel_check,
    prime_power_root,
)
from .fixedpoint import (
    BUILTIN_CATALOG,
    VERIFIERS,
    FixedComponent,
    MuTwoActionModel,
    builtin_action,
    verify_L2_relations,
    verify_additive,
    verify_all,
    verify_decomposable,
    verify_euler,
    verify_ks,
    verify_lmod2,
    verify_trivial_normal,
)
from .report import Check, Report
from . import chow_models, cobordism, core_algebra, fgl, fixedpoint, symmfunc

__version__ = "0.1.0"


def clear_caches():
    """Empty every process-lifetime cache, so that later calls compute from
    scratch: the model cache, which takes each model's memos with it, and
    every `lru_cache` of the package (laws, lattice pieces, the `lmod2`
    twisted series, the b_transport memo, partitions).  A model or law a
    caller still holds keeps its own memos.  The universal law's coefficient
    store, with its log-power and Horner row tables, and the interned
    monomial tables stay: they are append-only tables that every law and
    every sparse product reads, the same whatever is asked first."""
    chow_models._model_cache.clear()
    for mod in (core_algebra, fgl, cobordism, symmfunc, chow_models, fixedpoint):
        for obj in list(vars(mod).values()):
            # a wrapper that sets __wrapped__ (functools.wraps) may stand in
            # front of a cached function
            while obj is not None:
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
                obj = getattr(obj, "__wrapped__", None)


__all__ = [
    "ZZ", "ZHALF", "TRING", "TEPS", "IntegerLattice", "TruncatedSeries",
    "b_ring", "hnf_rows", "int_mod", "partitions",
    "FormalGroupLaw", "additive_fgl", "b_transport", "cha_b_image", "cha_fgl",
    "check_law_series", "chx_b_image", "chx_fgl", "formal_inverse",
    "formal_mult", "specialize", "universal_fgl", "universal_fgl_mod_p",
    "total_P", "total_P_deformed",
    "ChowModel", "VarietySpec", "VirtualSplitBundle", "additive_chern_number",
    "build_model", "chern_class", "chern_number", "chern_total",
    "euler_number", "fundamental_class",
    "quillen_pushforward", "tangent_bundle",
    "LazardDegreePiece", "binomial_middle_gcd", "decomposable_test",
    "lazard_basis", "lazard_piece", "mod2_theory_member",
    "mod2_theory_piece", "p_typical_chern_check",
    "p_typical_kernel_check", "prime_power_root",
    "BUILTIN_CATALOG", "VERIFIERS", "FixedComponent", "MuTwoActionModel",
    "builtin_action", "verify_L2_relations", "verify_additive", "verify_all",
    "verify_decomposable", "verify_euler", "verify_ks", "verify_lmod2",
    "verify_trivial_normal",
    "Check", "Report",
    "clear_caches", "__version__",
]
