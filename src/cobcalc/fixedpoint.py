"""Varieties with an involution, described by their fixed locus.

An action model records the ambient variety and the connected pieces of the
fixed locus, each with its codimension and split normal bundle.  The
verifiers check the parity constraints that such an action forces: lattice
congruences for pushforwards from the fixed locus, parity of characteristic
numbers against fixed-locus integrals, integrality and lattice membership of
the twisted classes built from the halved two-fold multiple of the group
law, Euler-characteristic congruences, and the additive-number relations
with their divisibility consequences for small fixed loci.
"""

from __future__ import annotations

from functools import lru_cache

from .chow_models import (
    VarietySpec,
    VirtualSplitBundle,
    _residues,
    additive_chern_number,
    build_model,
    chern_total,
    cm_graded,
    euler_number,
    fundamental_class,
    quillen_pushforward,
)
from .cobordism import decomposable_test, lazard_piece, mod2_theory_member
from .core_algebra import (
    ZHALF, ZZ, TruncatedSeries, _half_norm, _series_power, b_ring, is_int, is_partition, is_prime,
    partitions, sparse_lincomb,
)
from .fgl import formal_mult, universal_fgl
from .report import Report

B = b_ring(ZZ)
BH = b_ring(ZHALF)


def _alpha_str(alpha):
    return "(" + ",".join(str(a) for a in alpha) + ")"


class FixedComponent:
    """One connected piece of the fixed locus: its own variety, its
    codimension in the ambient variety, and its normal bundle in split form.
    The normal bundle may subtract at most one trivial summand, so adding a
    single trivial line always yields an honest bundle."""

    __slots__ = ("spec", "codim", "model", "normal", "_plus_one")

    def __init__(self, spec, codim, normal):
        spec = spec.canonical()
        if spec.kind == "disjoint":
            raise ValueError("list the pieces of a disconnected fixed locus separately")
        if not is_int(codim) or codim < 0:
            raise ValueError("codimension must be a nonnegative integer")
        model = build_model(spec)
        if normal.model is not model:
            raise ValueError("normal bundle lives on a different model")
        if normal.minus_lines:
            raise ValueError("normal bundle must not subtract line summands")
        if normal.minus_trivial > 1:
            raise ValueError("normal bundle may subtract at most one trivial summand")
        if normal.rank != codim:
            raise ValueError("normal bundle rank %d != codimension %d" % (normal.rank, codim))
        self.spec = spec
        self.codim = codim
        self.model = model
        self.normal = normal
        self._plus_one = normal.add_trivial(1)

    @classmethod
    def from_lines(cls, spec, codim, line_vectors=(), trivial_rank=0, minus_trivial_rank=0):
        normal = VirtualSplitBundle(build_model(spec), line_vectors, (), trivial_rank, minus_trivial_rank)
        return cls(spec, codim, normal)

    def dim(self):
        return self.spec.dim()

    def normal_plus_one(self):
        """N + 1, one bundle per component, so that its residue records share
        one memo key, made once."""
        return self._plus_one

    def proj_spec(self):
        """The projective completion of the normal bundle, as a variety."""
        nb = self.normal_plus_one()
        vecs = nb.plus_lines + ((0,) * len(self.model.gens),) * nb.plus_trivial
        return VarietySpec.projbundle(self.spec, vecs)

    def to_json(self):
        nb = self.normal
        out = {
            "spec": self.spec.to_json(),
            "codim": self.codim,
            "normal_lines": [list(v) for v in nb.plus_lines],
            "normal_trivial_rank": nb.plus_trivial,
        }
        if nb.minus_trivial:
            out["normal_minus_trivial_rank"] = nb.minus_trivial
        return out

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "spec" not in obj or "codim" not in obj:
            raise ValueError("fixed component must be an object with 'spec' and 'codim'")
        spec = VarietySpec.from_json(obj["spec"])
        lines = obj.get("normal_lines", [])
        if not isinstance(lines, list) or not all(
            isinstance(v, list) and all(is_int(a) for a in v) for v in lines
        ):
            raise ValueError(
                "fixed component field 'normal_lines' must be a JSON list of integer lists")
        ranks = []
        for name in ("normal_trivial_rank", "normal_minus_trivial_rank"):
            val = obj.get(name, 0)
            if not is_int(val):
                raise ValueError("fixed component field %r must be a JSON integer" % name)
            ranks.append(val)
        return cls.from_lines(spec, obj["codim"], lines, *ranks)

    def __repr__(self):
        return "<fixed %r codim %d>" % (self.spec, self.codim)


class MuTwoActionModel:
    """An ambient variety together with the fixed locus of an involution."""

    __slots__ = ("ambient", "components", "name")

    def __init__(self, ambient, components, name=None):
        ambient = ambient.canonical()
        n = ambient.dim()
        components = tuple(components)
        for c in components:
            if not isinstance(c, FixedComponent):
                raise ValueError("components must be FixedComponent instances")
            if c.dim() + c.codim != n:
                raise ValueError(
                    "component dimension %d + codimension %d != ambient dimension %d"
                    % (c.dim(), c.codim, n)
                )
        self.ambient = ambient
        self.components = components
        self.name = name or "action"

    @property
    def dim(self):
        return self.ambient.dim()

    @property
    def fix_dim(self):
        """Largest dimension of a fixed component; -1 for a free action."""
        return max((c.dim() for c in self.components), default=-1)

    @property
    def small_fix(self):
        """2 fix_dim < dim - 1: the hypothesis of every small-fixed-locus check."""
        return 2 * self.fix_dim < self.dim - 1

    def to_json(self):
        return {
            "ambient": self.ambient.to_json(),
            "components": [c.to_json() for c in self.components],
        }

    @classmethod
    def from_json(cls, obj, name=None):
        if not isinstance(obj, dict) or "ambient" not in obj:
            raise ValueError("action must be an object with an 'ambient' field")
        ambient = VarietySpec.from_json(obj["ambient"])
        comps = obj.get("components", [])
        if not isinstance(comps, list):
            raise ValueError("action field 'components' must be a JSON list")
        comps = [FixedComponent.from_json(c) for c in comps]
        return cls(ambient, comps, name=name)

    def __repr__(self):
        return "<action %s on %r, %d fixed components>" % (
            self.name, self.ambient, len(self.components))


BUILTIN_CATALOG = (
    {
        "name": "linear_pn",
        "params": {
            "n": "ambient projective dimension (n >= 1)",
            "a": "dimension of one fixed linear subspace (0 <= a < n)",
        },
        "description": "sign change on the last n - a homogeneous coordinates of "
        "projective n-space; the fixed locus is a pair of disjoint linear "
        "subspaces with split normal bundles",
    },
    {
        "name": "factorwise_p1n",
        "params": {"n": "number of line factors (n >= 1)"},
        "description": "the standard involution on every factor of a product of n "
        "projective lines; the fixed locus is 2^n points with trivial normal "
        "bundles",
    },
    {
        "name": "swap_square",
        "params": {"spec": "variety descriptor of the factor"},
        "description": "exchange of the two factors of a square; the fixed locus "
        "is the diagonal and its normal bundle is the tangent bundle",
    },
)


def builtin_action(name, n=None, a=None, spec=None):
    if name == "linear_pn":
        if not (is_int(n) and is_int(a)):
            raise ValueError("linear_pn needs int parameters n and a, got %r and %r" % (n, a))
        if n < 1 or not 0 <= a < n:
            raise ValueError("linear_pn needs n >= 1 and 0 <= a < n")
        comps = [
            FixedComponent.from_lines(VarietySpec.multiproj([a]), n - a, [[1]] * (n - a)),
            FixedComponent.from_lines(VarietySpec.multiproj([n - a - 1]), a + 1, [[1]] * (a + 1)),
        ]
        return MuTwoActionModel(
            VarietySpec.multiproj([n]), comps, name="linear_pn(n=%d,a=%d)" % (n, a))
    if name == "factorwise_p1n":
        if not is_int(n):
            raise ValueError("factorwise_p1n needs an int parameter n, got %r" % (n,))
        if n < 1:
            raise ValueError("factorwise_p1n needs n >= 1")
        point = VarietySpec.point()
        comps = [FixedComponent.from_lines(point, n, [], n) for _ in range(2 ** n)]
        return MuTwoActionModel(
            VarietySpec.multiproj([1] * n), comps, name="factorwise_p1n(n=%d)" % n)
    if name == "swap_square":
        if spec is None:
            raise ValueError("swap_square needs a variety spec")
        spec = spec.canonical()
        if spec.kind == "disjoint":
            raise ValueError("swap_square factor must be connected")
        # the diagonal's normal bundle is the tangent bundle, which subtracts
        # one trivial summand per layer of the factor's tower, and a fixed
        # component's normal bundle may subtract at most one
        model = build_model(spec)
        if len(model.layers) > 1:
            raise ValueError("swap_square needs a factor whose tower has at most one layer "
                             "(a projective space or a point); this one has %d layers"
                             % len(model.layers))
        comp = FixedComponent(spec, spec.dim(), model.tangent())
        ambient = VarietySpec.product([spec, spec])
        return MuTwoActionModel(
            ambient, [comp], name="swap_square(dim=%d)" % spec.dim())
    raise ValueError("unknown builtin action %r" % name)


# ---------------------------------------------------------------------------
# verifiers

def _max_twist(max_m, n):
    """The largest twist to check: max_m, or the ambient dimension n."""
    if max_m is None:
        return n
    if not is_int(max_m):
        raise ValueError("max_m must be an int, got %r" % (max_m,))
    if max_m < 0:
        raise ValueError("max_m must be >= 0")
    return max_m


def verify_L2_relations(action, max_m=None):
    """Pushforwards from the projective completions of the normal bundles:
    at twist zero the total agrees with the ambient class in the mod-2
    theory (modulo twice the lattice plus the two-fold-multiple ideal), and
    every positive twist vanishes there.  Each twist-zero pushforward is
    also recomputed directly on the completion as a cross-check."""
    n = action.dim
    max_m = _max_twist(max_m, n)
    rep = Report("l2")
    values = []  # per component, its pushforwards at twists 0..max_m
    for idx, comp in enumerate(action.components):
        nb = comp.normal_plus_one()
        direct = fundamental_class(comp.proj_spec(), "L")
        q0 = quillen_pushforward(nb, 0)
        rep.add(
            "l2:route:%d" % idx,
            "residue pushforward at twist 0 agrees with the direct class of the "
            "projective completion (component %d)" % idx,
            q0 == direct,
            lhs=B.fmt(q0),
            rhs=B.fmt(direct),
        )
        values.append([q0] + [quillen_pushforward(nb, m) for m in range(1, max_m + 1)])
    sums = [B.lincomb([(vals[m], 1) for vals in values]) for m in range(max_m + 1)]
    ambient_cls = fundamental_class(action.ambient, "L")
    diff = B.sub(sums[0], ambient_cls)
    rep.add(
        "l2:class",
        "total twist-0 pushforward equals the ambient class in the mod-2 "
        "theory quotient in degree %d" % n,
        mod2_theory_member(n, diff),
        lhs=B.fmt(sums[0]),
        rhs=B.fmt(ambient_cls),
    )
    for m in range(1, max_m + 1):
        val = sums[m]
        if m > n:
            ok = B.is_zero(val)
        else:
            ok = mod2_theory_member(n - m, val)
        rep.add(
            "l2:twist:%d" % m,
            "total twist-%d pushforward vanishes in the mod-2 theory quotient "
            "in degree %d" % (m, n - m),
            ok,
            lhs=B.fmt(val),
            rhs="0 (mod 2 + ideal)",
        )
    return rep


_HYP_EVEN_NORMAL = (
    "every fixed component has positive codimension and a normal bundle "
    "whose positive-degree Chern classes are all even"
)


def verify_trivial_normal(action):
    """When the normal data of the fixed locus is even, every top Chern
    number of the ambient variety is even, and so is every per-dimension sum
    of Chern numbers over the fixed components."""
    n = action.dim
    rep = Report("trivial-normal")
    reason = None
    for idx, comp in enumerate(action.components):
        if comp.codim == 0:
            reason = "component %d has codimension 0" % idx
            break
        ctot = chern_total(comp.normal)
        for k in range(1, comp.codim + 1):
            if any(v % 2 for v in cm_graded(ctot, k).values()):
                reason = "component %d has an odd Chern class c_%d of its normal bundle" % (idx, k)
                break
        if reason:
            break
    if reason is not None:
        rep.add_skip("trivial-normal:hypothesis", _HYP_EVEN_NORMAL, lhs=reason)
        return rep
    rep.add("trivial-normal:hypothesis", _HYP_EVEN_NORMAL, True)
    ambient_cls = fundamental_class(action.ambient, "L")
    for alpha in partitions(n):
        v = ambient_cls.get(alpha, 0)
        rep.add(
            "trivial-normal:ambient:%s" % _alpha_str(alpha),
            "Chern number %s of the ambient variety is even" % _alpha_str(alpha),
            v % 2 == 0,
            lhs=v,
            rhs="0 (mod 2)",
        )
    fix_cls = {}
    for c in action.components:
        fix_cls.setdefault(c.dim(), []).append((fundamental_class(c.spec, "L"), 1))
    for w in sorted(fix_cls):
        total = B.lincomb(fix_cls[w])
        for beta in partitions(w):
            s = total.get(beta, 0)
            rep.add(
                "trivial-normal:fix:%d:%s" % (w, _alpha_str(beta)),
                "sum of Chern numbers %s over the %d-dimensional fixed components is even"
                % (_alpha_str(beta), w),
                s % 2 == 0,
                lhs=s,
                rhs="0 (mod 2)",
            )
    return rep


def _twisted_chern_classes(comp, z_max):
    """The pieces c_0..c_{z_max} of the total Chern class of the twist of
    the normal bundle by the nontrivial character plus the tangent bundle of
    the component: the z-graded pieces of the product of 1 + z r over its
    roots r, which are 1 + l for a normal line l, 1 for a trivial normal
    summand, and the tangent roots.  The auxiliary degree z lets the roots be
    inhomogeneous."""
    model = comp.model
    one = model.one(ZZ)
    tan = model.tangent()  # it subtracts trivial summands only, roots 0
    roots = [sparse_lincomb(ZZ, ((one, 1), (model.line_class(v), 1))) for v in comp.normal.plus_lines]
    roots += [one] * comp.normal.plus_trivial + [model.line_class(v) for v in tan.plus_lines]
    # a subtracted trivial summand divides by 1 + z: times sum_j (-z)^j
    inv = {j: sparse_lincomb(ZZ, ((one, (-1) ** j),)) for j in range(z_max + 1)}
    factors = [{0: one, 1: r} for r in roots] + [inv] * comp.normal.minus_trivial
    cz = model.product(ZZ, factors, z_max)
    return [cz.get(j, {}) for j in range(z_max + 1)]


def _eval_chern_poly(model, f, cz):
    """Evaluate a polynomial in Chern classes: f maps exponent tuples
    (e_1, ..., e_k) to integer coefficients, the tuple standing for the
    product of c_j to the power e_j."""
    pairs = []
    for exps, coeff in f.items():
        term = model.one(ZZ)
        for pos, e in enumerate(exps):
            if e < 0:
                raise ValueError("negative exponent in Chern polynomial")
            cj = cz[pos + 1] if pos + 1 < len(cz) else {}
            for _ in range(e):
                term = model.mul(ZZ, term, cj)
                if not term:
                    break
        pairs.append((term, coeff))
    return sparse_lincomb(ZZ, pairs)


def _poly_number(spec, f):
    """Degree of f evaluated on the Chern classes of the tangent bundle."""
    if spec.kind == "disjoint":
        return sum(_poly_number(c, f) for c in spec.components)
    model = build_model(spec)
    c_tan = chern_total(model.tangent())
    cz = [cm_graded(c_tan, j) for j in range(spec.dim() + 1)]
    return model.degree(ZZ, _eval_chern_poly(model, f, cz))


def verify_ks(action, alphas=None, f=None):
    """Characteristic numbers of the ambient variety against twisted
    integrals over the fixed locus, mod 2.

    With `alphas` (default: all partitions of weight up to the dimension)
    each partition-indexed number of the ambient variety is compared with
    the fixed-locus integral of the matching coefficient of the deformed
    negative-bundle class.  With `f`, a polynomial in Chern classes, the
    integral of f on the ambient tangent bundle is compared with the
    fixed-locus integrals of f on the twisted normal-plus-tangent roots."""
    n = action.dim
    rep = Report("ks")
    run_alphas = alphas
    if alphas is None and f is None:
        run_alphas = [a for w in range(n + 1) for a in partitions(w)]
    if run_alphas:
        run_alphas = [tuple(alpha) for alpha in run_alphas]
        for alpha in run_alphas:
            if sum(alpha) > n:
                raise ValueError("partition weight exceeds the ambient dimension")
            if not is_partition(alpha):
                raise ValueError("alpha must be a partition")
        ambient_cls = fundamental_class(action.ambient, "L")
        # The fixed-locus integral of alpha is the b^alpha coefficient of
        # sum_{k <= n} [y^k] deg(c(-N) P(-T) P_y(-N)).  With V = N + O,
        # c(-N) = c(-V) and P_y(-N) = P_y(-V) pi(y), so it is the ks integral
        # of the residue record of V that the pushforwards share.
        fixed = B.lincomb([(_residues(comp.normal_plus_one())[1], 1) for comp in action.components])
        for alpha in run_alphas:
            lhs = ambient_cls.get(alpha, 0)
            rhs = fixed.get(alpha, 0)
            rep.add(
                "ks:alpha:%s" % _alpha_str(alpha),
                "characteristic number %s of the ambient variety matches the "
                "fixed-locus integral mod 2" % _alpha_str(alpha),
                (lhs - rhs) % 2 == 0,
                lhs=lhs,
                rhs=rhs,
            )
    if f is not None:
        f = {tuple(k): v for k, v in f.items()}
        lhs = _poly_number(action.ambient, f)
        rhs = 0
        for comp in action.components:
            model = comp.model
            c_minus = chern_total(comp.normal.neg())
            val = _eval_chern_poly(model, f, _twisted_chern_classes(comp, n))
            rhs += model.degree(ZZ, model.mul(ZZ, c_minus, val))
        rep.add(
            "ks:poly",
            "Chern-polynomial integral of the ambient tangent bundle matches "
            "the twisted fixed-locus integral mod 2",
            (lhs - rhs) % 2 == 0,
            lhs=lhs,
            rhs=rhs,
        )
    return rep


@lru_cache(maxsize=None)
def _lmod2_twists(order):
    """verify_lmod2's twisted series at the order, over B(ZZ) after x -> 2x
    and truncated below x^(order - 1): z = [-1](2x) and the list
    [V, z V, z^2 V, ...] that _integer_twist grows, where V = 2 v(zeta)(2x)
    for zeta = [-1](x) and v(zeta) = [-1](x) / [-2](x).  [-2](x) = -2x + ...,
    so den = [-2](2x) / (-4x) is integral with constant term 1, and
    V = -([-1](2x) / (2x)) den^(-1), the reciprocal by Miller's recurrence."""
    law = universal_fgl(order)

    def at_2x(f, shift, div):
        # f(2x) / (div x^shift): 2^j [x^j] f / div at x^(j - shift), exactly
        return TruncatedSeries(B, ("x",), order - 1, {
            (j - shift,): {p: (v << j) // div for p, v in c.items()} for (j,), c in f.coeffs.items()})

    inv = formal_mult(law, -1)
    den = at_2x(formal_mult(law, -2), 1, -4)
    return at_2x(inv, 0, 1), [at_2x(inv, 1, -2).mul(_series_power(den, -1))]


def _integer_twist(order, m):
    """z^m V = 2 (zeta^m v(zeta))(2x) over B(ZZ), with z = [-1](2x).  The
    twisted series of verify_lmod2 are g_0 = 2 v(zeta) and
    g_m = zeta^m v(zeta), so [x^j] g_m = 2^(-j-1) [x^j] z^m V, doubled at
    m = 0.  Read off the memo of the order and grown one power of z at a
    time; z^m vanishes below x^(order - 1) from m = order - 1 on, so every
    such m reads 0 and the memo holds at most `order` series."""
    z, gs = _lmod2_twists(order)
    m = min(m, order - 1)
    while len(gs) <= m:
        gs.append(gs[-1].mul(z))
    return gs[m]


def verify_lmod2(action, max_m=None):
    """Integrality and lattice membership of the twisted classes built from
    the halved two-fold multiple of the group law.

    Over half-integer coefficients, v = x / [2](x) is composed with the
    formal inverse [-1](x), which gives [-1](x) / [-2](x); the twisted class
    A_m sums the x-coefficients of that series (multiplied by the m-th power
    of the inverse, and doubled at m = 0) against the twisted pushforwards
    from the fixed locus.  The only denominators are powers of two, so the
    series are built over the integers after x -> 2x (_integer_twist), and
    no arithmetic is done over the half-integers.  Every A_m must be
    integral; A_0 must agree with the ambient class modulo twice the
    lattice, and each A_m with m >= 1 must lie in the lattice."""
    n = action.dim
    # A_m reads x^0..x^n of the twisted series, kept below x^(order - 1), and
    # a coefficient of a truncated product depends only on the lower ones:
    # every order above n + 1 gives the same classes
    order = n + 3
    max_m = _max_twist(max_m, n)
    rep = Report("lmod2")
    # pushforwards of honest bundles are integral: take them over ZZ, where
    # the values verify_L2_relations computed are cached, and sum
    # 2^(n+1) A_m = sum_j 2^(n-j) [x^j] z^m V Q_j there, doubled at m = 0
    q_sums = [B.lincomb([(quillen_pushforward(comp.normal_plus_one(), j), 1)
                         for comp in action.components]) for j in range(n + 1)]
    ambient_cls = fundamental_class(action.ambient, "L")
    for m in range(max_m + 1):
        g = _integer_twist(order, m).coeffs
        scaled = B.dot([(g[(j,)], q_sums[j], 1 << (n - j + (m == 0))) for j in range(n + 1)
                        if (j,) in g])
        # A_m is integral exactly when 2^(n+1) divides every coefficient of
        # 2^(n+1) A_m, and an integral A_m renders the same over ZZ[1/2] as over ZZ
        a_m = {p: _half_norm(v, n + 1) for p, v in scaled.items()}
        ints = {p: num for p, (num, e) in a_m.items() if not e}
        text = BH.fmt(a_m)
        rep.add(
            "lmod2:int:%d" % m,
            "twisted class A_%d has integer coefficients" % m,
            len(ints) == len(a_m),
            lhs=text,
        )
        if len(ints) < len(a_m):
            continue
        if m == 0:
            diff = B.sub(ints, ambient_cls)
            rep.add(
                "lmod2:class",
                "A_0 equals the ambient class modulo twice the lattice in degree %d" % n,
                lazard_piece(n).member_mod(diff, 2),
                lhs=text,
                rhs=B.fmt(ambient_cls),
            )
        else:
            ok = B.is_zero(ints) if m > n else lazard_piece(n - m).member(ints)
            rep.add(
                "lmod2:member:%d" % m,
                "A_%d lies in the lattice in degree %d" % (m, n - m),
                ok,
                lhs=text,
            )
    return rep


def verify_euler(action):
    """Euler-characteristic congruences: ambient and fixed-locus numbers
    agree mod 2, mod 4 in odd ambient dimension, and a fixed locus of small
    dimension forces its number to be divisible by 4."""
    n = action.dim
    rep = Report("euler")
    chi_x = euler_number(action.ambient)
    chi_f = sum(euler_number(c.spec) for c in action.components)
    rep.add(
        "euler:mod2",
        "Euler numbers of the ambient variety and the fixed locus agree mod 2",
        (chi_x - chi_f) % 2 == 0,
        lhs=chi_x,
        rhs=chi_f,
    )
    if n % 2 == 1:
        rep.add(
            "euler:mod4",
            "Euler numbers agree mod 4 in odd ambient dimension",
            (chi_x - chi_f) % 4 == 0,
            lhs=chi_x,
            rhs=chi_f,
        )
    else:
        rep.add_skip(
            "euler:mod4",
            "Euler numbers agree mod 4 in odd ambient dimension",
            lhs="ambient dimension %d is even" % n,
        )
    if action.small_fix:
        rep.add(
            "euler:small-fix",
            "a fixed locus of dimension below (dim - 1)/2 has Euler number divisible by 4",
            chi_f % 4 == 0,
            lhs=chi_f,
            rhs="0 (mod 4)",
        )
    else:
        rep.add_skip(
            "euler:small-fix",
            "a fixed locus of dimension below (dim - 1)/2 has Euler number divisible by 4",
            lhs="fix dimension %d is not below (%d - 1)/2" % (action.fix_dim, n),
        )
    return rep


def _point_skip(name, what):
    """The one record of a verifier with nothing to check on a 0-dimensional
    ambient variety."""
    rep = Report(name)
    rep.add_skip(name + ":dimension", what + " need a positive-dimensional ambient variety",
                 lhs="ambient dimension 0")
    return rep


def _completion_terms(comp):
    """[s, D_1, ..., D_n] for the projective completion P(N + O) of a fixed
    component, n the ambient dimension, read off the residue record of
    N + O: twist j is the class q_j of the codimension-j linear section Z_j,
    and T_(Z_j) = T|Z_j - j O(xi), so s = [b_n] q_0, D_j = j deg(xi^n) -
    [b_(n-j)] q_j for 0 < j < n, and D_n = deg(xi^n), the constant of q_n."""
    n = comp.dim() + comp.codim
    q = _residues(comp.normal_plus_one())[0]
    top = q[n].get((), 0)
    return [q[0].get((n,), 0)] + [j * top - q[j].get((n - j,), 0) for j in range(1, n)] + [top]


def verify_additive(action):
    """Additive-number relations over the projective completions of the
    normal bundles: the ambient additive number matches the completion total
    mod 2, every twisted term is even, the power-of-two twists refine the
    congruence to mod 4, and a small fixed locus forces divisibility of the
    ambient additive number (with a decomposability cross-check).  A
    0-dimensional ambient variety has none of these and gets one skip."""
    n = action.dim
    if n < 1:
        return _point_skip("additive", "additive-number relations")
    rep = Report("additive")
    s_x = additive_chern_number(action.ambient)
    # entry 0 sums the completion numbers, entry j the terms D_j
    d = [sum(col) for col in zip([0] * (n + 1), *map(_completion_terms, action.components))]
    s_pb = d[0]
    rep.add(
        "additive:mod2",
        "additive number of the ambient variety matches the completion total mod 2",
        (s_x - s_pb) % 2 == 0,
        lhs=s_x,
        rhs=s_pb,
    )
    for j in range(1, n + 1):
        rep.add(
            "additive:twist:%d" % j,
            "twisted additive term D_%d is even" % j,
            d[j] % 2 == 0,
            lhs=d[j],
            rhs="0 (mod 2)",
        )
    pow2 = (n + 1) & n == 0
    if pow2:
        for j in range(1, n + 1):
            k = n - j + 1
            if k & (k - 1):
                continue
            rep.add(
                "additive:mod4:%d" % j,
                "mod-4 relation at twist %d (both shifted dimensions are powers of two)" % j,
                (s_x - s_pb - d[j]) % 4 == 0,
                lhs=s_x,
                rhs=s_pb + d[j],
            )
    else:
        rep.add_skip(
            "additive:mod4",
            "mod-4 relations need the ambient dimension plus one to be a power of two",
            lhs="dim + 1 = %d" % (n + 1),
        )
    if action.small_fix:
        rep.add(
            "additive:small-fix",
            "a fixed locus of dimension below (dim - 1)/2 forces an even ambient additive number",
            s_x % 2 == 0,
            lhs=s_x,
            rhs="0 (mod 2)",
        )
        if pow2:
            rep.add(
                "additive:small-fix-mod4",
                "with dim + 1 a power of two the ambient additive number is divisible by 4",
                s_x % 4 == 0,
                lhs=s_x,
                rhs="0 (mod 4)",
            )
        verdict = decomposable_test(action.ambient, 2)
        rep.add(
            "additive:decomposable",
            "a small fixed locus forces a decomposable ambient class mod 2",
            verdict["in_Lmodp_decomposable"],
            lhs=verdict,
        )
    else:
        rep.add_skip(
            "additive:small-fix",
            "small-fixed-locus conclusions need 2 dim(fix) < dim - 1",
            lhs="fix dimension %d" % action.fix_dim,
        )
    return rep


def verify_decomposable(action, p=2):
    """Decomposability verdicts for the ambient class; for p = 2 and a fixed
    locus of small dimension the mod-2 verdict must be positive."""
    n = action.dim
    if not is_prime(p):
        raise ValueError("p must be prime")
    if n < 1:
        return _point_skip("decomposable", "decomposability verdicts")
    rep = Report("decomposable")
    verdict = decomposable_test(action.ambient, p)
    rep.add(
        "decomposable:verdict",
        "divisibility verdicts computed from the additive Chern number",
        True,
        lhs=verdict,
    )
    if p == 2 and action.small_fix:
        rep.add(
            "decomposable:small-fix",
            "a small fixed locus forces decomposability of the ambient class mod 2",
            verdict["in_Lmodp_decomposable"],
            lhs=verdict,
        )
    else:
        rep.add_skip(
            "decomposable:small-fix",
            "the decomposability conclusion needs p = 2 and 2 dim(fix) < dim - 1",
            lhs="p=%d, fix dimension %d, ambient dimension %d" % (p, action.fix_dim, n),
        )
    return rep


def verify_all(action, max_m=None):
    rep = Report("all")
    rep.merge(verify_L2_relations(action, max_m=max_m))
    rep.merge(verify_trivial_normal(action))
    rep.merge(verify_ks(action))
    rep.merge(verify_lmod2(action, max_m=max_m))
    rep.merge(verify_euler(action))
    rep.merge(verify_additive(action))
    rep.merge(verify_decomposable(action))
    return rep


VERIFIERS = {
    "l2": verify_L2_relations,
    "trivial-normal": verify_trivial_normal,
    "ks": verify_ks,
    "lmod2": verify_lmod2,
    "euler": verify_euler,
    "additive": verify_additive,
    "decomposable": verify_decomposable,
    "all": verify_all,
}
