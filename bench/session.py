"""The `session` workload: one library process runs the same query list, cold then warm.

    PYTHONPATH=src python3 bench/session.py --seed N [--trace]

The first pass fills the library's caches and WARM_PASSES more passes read
them.  Each
query is timed on its own; checking its result (invariants, digest) happens
outside the timed region.  The process prints one JSON line:

    {"passes": [[[label, seconds, digest, ok], ...], [...], ...],
     "components": [...], "ref_s": [...], "trace": {...} (with --trace only)}

`run.py` compares the digests with the pinned ones and turns the per-query
times into the benchmark's metrics.
"""

import argparse
import hashlib
import json
import random
import sys
from time import perf_counter

import reference

LAZARD_MAX = 13
MOD2_MAX = 12
LAW_ORDER = 18
MULTS = (2, 3)
LINEAR_PN_N = 5
FACTORWISE_N = 4
WARM_PASSES = 2  # warm times vary more from pass to pass, so they get more samples
REF_EVERY = 3  # take a reference sample before every third query


def _digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _b_json(elt):
    return [[list(parts), c] for parts, c in sorted(elt.items())]


def _series_json(series):
    return [[list(e), _b_json(c)] for e, c in sorted(series.coeffs.items())]


def _composition(rng, total, parts):
    """A random ordered split of `total` into `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def queries(cc, seed):
    """The query list for one pass, as (label, run, check) triples: run()
    does the timed work, check(result) returns (JSON value, invariant ok)."""
    rng = random.Random(seed)
    out = []

    def lattice_value(lat):
        return {"rank": lat.rank, "hnf": [list(r) for r in lat.hnf]}

    for d in range(1, LAZARD_MAX + 1):
        out.append((
            "lazard_piece(%d)" % d,
            lambda d=d: cc.lazard_piece(d),
            lambda p, d=d: (dict(lattice_value(p.lattice), generators=len(p.generators)),
                            p.rank == len(cc.partitions(d))),
        ))
    for d in range(1, MOD2_MAX + 1):
        out.append((
            "mod2_theory_piece(%d)" % d,
            lambda d=d: cc.mod2_theory_piece(d),
            lambda lat, d=d: (lattice_value(lat), lat.rank == len(cc.partitions(d))),
        ))

    B = cc.b_ring(cc.ZZ)
    out.append((
        "universal_fgl(%d)" % LAW_ORDER,
        lambda: cc.universal_fgl(LAW_ORDER),
        lambda law: (_series_json(law.series),
                     law.coefficient(1, 0) == B.one() and law.coefficient(0, 1) == B.one()),
    ))
    for a in MULTS:
        out.append((
            "formal_mult(universal_fgl(%d),%d)" % (LAW_ORDER, a),
            lambda a=a: cc.formal_mult(cc.universal_fgl(LAW_ORDER), a),
            lambda s, a=a: (_series_json(s), s.coefficient((1,)) == B.from_int(a)),
        ))

    def to_chx():
        law = cc.specialize(cc.universal_fgl(LAW_ORDER), cc.TRING,
                            lambda c: cc.b_transport(c, cc.TRING, cc.chx_b_image))
        return law.series.coeffs == cc.chx_fgl(LAW_ORDER).series.coeffs

    out.append(("specialize(universal_fgl(%d),chx)" % LAW_ORDER, to_chx, lambda same: (same, same)))

    shift = rng.randint(-3, 0)
    specs = [
        cc.VarietySpec.multiproj(_composition(rng, 10, 3)),
        cc.VarietySpec.projbundle(
            cc.VarietySpec.multiproj([3]), [[v] for v in rng.sample(range(shift, shift + 4), 4)]),
        cc.VarietySpec.projbundle(
            cc.VarietySpec.multiproj([1, 2]),
            [[rng.randint(-1, 1), rng.randint(-1, 1)] for _ in range(3)]),
    ]
    for spec in specs:
        def member(spec=spec):
            cls = cc.fundamental_class(spec, "L")
            return cls, cc.lazard_piece(spec.dim()).member(cls)

        out.append(("member(%s)" % spec.key(), member,
                    lambda r: ({"class": _b_json(r[0]), "member": r[1]}, r[1])))

    # A product of positive-dimensional factors is decomposable, so its
    # additive Chern number vanishes.
    prod = cc.VarietySpec.multiproj(_composition(rng, 6, rng.randint(2, 3)))
    out.append((
        "decomposable_test(%s,2)" % prod.key(),
        lambda: cc.decomposable_test(prod, 2),
        lambda v: (v, v["additive_chern_number"] == 0 and v["in_Lmodp_decomposable"]),
    ))

    actions = [("factorwise_p1n", {"n": FACTORWISE_N})]
    a_values = list(range(LINEAR_PN_N))
    rng.shuffle(a_values)
    actions += [("linear_pn", {"n": LINEAR_PN_N, "a": a}) for a in a_values]
    for name, params in actions:
        label = "verify_all(%s,%s)" % (name, json.dumps(params, sort_keys=True))

        def verify(name=name, params=params):
            action = cc.builtin_action(name, **params)
            return action, cc.verify_all(action)

        out.append((label, verify, lambda r: (r[1].to_json(), r[1].ok)))
    return out


def run_pass(cc, seed):
    """Run the query list once; returns the per-query records, the fixed
    components of the verified actions, in order, and the reference samples
    taken between queries."""
    records, components, ref = [], [], []
    for i, (label, run, check) in enumerate(queries(cc, seed)):
        if i % REF_EVERY == 0:
            ref.append(reference.start_time())
        t0 = perf_counter()
        result = run()
        dt = perf_counter() - t0
        try:
            value, ok = check(result)
        except Exception as e:  # a malformed result is a failed query
            value, ok = repr(e), False
        records.append([label, dt, _digest(value), bool(ok)])
        if label.startswith("verify_all("):
            components += result[0].to_json()["components"]
    return records, components, ref


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true", help="record per-layer spans and counts")
    args = ap.parse_args(argv)
    if args.trace:
        import tracer

        tracer.install()
    import cobcalc as cc

    passes = [run_pass(cc, args.seed) for _ in range(1 + WARM_PASSES)]
    out = {"passes": [records for records, _, _ in passes], "components": passes[0][1],
           "ref_s": [r for _, _, ref in passes for r in ref]}
    if args.trace:
        out["trace"] = tracer.raw()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
