"""Checks of the benchmark itself; exits non-zero if one fails.

    python3 bench/selftest.py

- On the default seed the pinned digests hold, so fail_frac is 0.
- With one pinned digest deliberately wrong, fail_frac is above 0.
- Two traced runs of `verify --theorem all` on linear_pn(n=6, a=2) record
  identical call counts, with 28 residue pushforwards (7 twists for each of
  the 2 fixed components, in both the l2 and the lmod2 verifier).
"""

import sys

import run

VERIFY_ARGS = ["verify", "--theorem", "all", "--builtin", "linear_pn", "--n", "6", "--a", "2"]
EXPECTED_PUSHFORWARDS = 28


def fail_frac(result):
    return result["failed"] / result["attempted"]


def check_pins():
    seed = run.PINNED["seed"]
    clean, _ = run.run_workload("chern-cli", seed, 1, 0)
    label = next(label for label in run.PINNED["cli"] if label.startswith("chern "))
    pin = run.PINNED["cli"][label]
    good = pin["sha256"]
    pin["sha256"] = "0" * 64
    try:
        tampered, _ = run.run_workload("chern-cli", seed, 1, 0)
    finally:
        pin["sha256"] = good
    return [
        ("pinned digests hold on the default seed", clean["correct"] and fail_frac(clean) == 0),
        ("a wrong pinned digest gives fail_frac > 0",
         not tampered["correct"] and fail_frac(tampered) > 0),
    ]


def check_traced_counts():
    bench = run.Run(seconds=1)
    calls = []
    for _ in range(2):
        child = bench.child(run.TRACED_CLI + VERIFY_ARGS)
        rec = run.trace_record(child)
        if child.code != 0 or rec is None:
            return [("traced verify run finishes with a trace record", False)]
        calls.append({name: v[0] for name, v in rec["stats"].items()})
    pushforwards = calls[0].get("chow_models.quillen_pushforward")
    return [
        ("two traced runs give identical call counts", calls[0] == calls[1]),
        ("linear_pn(6,2) makes %d quillen_pushforward calls (got %s)"
         % (EXPECTED_PUSHFORWARDS, pushforwards), pushforwards == EXPECTED_PUSHFORWARDS),
    ]


def main():
    results = check_pins() + check_traced_counts()
    print("(FAILED lines on stderr come from the deliberately wrong pin)")
    for what, ok in results:
        print("%s  %s" % ("PASS" if ok else "FAIL", what))
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
