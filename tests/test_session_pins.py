"""The law and mod-2 lattice answers of the `session` benchmark, pinned in
tier 1: each value is digested as `bench/session.py` digests it (sha256 of
its sorted-key JSON) and compared with `bench/pinned.json`, which this
module only reads.

To compare every answer with its pin on an interpreter without pytest, run

    PYTHONPATH=src python tests/test_session_pins.py --check

which exits 1 if any answer differs.  So this module imports nothing of
pytest: the pinned test is parametrized by `pytest_generate_tests`."""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from cobcalc.cobordism import mod2_theory_piece
from cobcalc.fgl import formal_mult, universal_fgl

PINNED = Path(__file__).resolve().parent.parent / "bench" / "pinned.json"
LAW_ORDER = 18


def _digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _series_json(series):
    return [[list(e), [[list(parts), c] for parts, c in sorted(elt.items())]]
            for e, elt in sorted(series.coeffs.items())]


def _lattice_json(lat):
    return {"rank": lat.rank, "hnf": [list(r) for r in lat.hnf]}


# session label -> the value it digests
ANSWERS = {
    **{"mod2_theory_piece(%d)" % d: (lambda d=d: _lattice_json(mod2_theory_piece(d)))
       for d in range(1, 13)},
    "universal_fgl(%d)" % LAW_ORDER: lambda: _series_json(universal_fgl(LAW_ORDER).series),
    **{"formal_mult(universal_fgl(%d),%d)" % (LAW_ORDER, a):
       (lambda a=a: _series_json(formal_mult(universal_fgl(LAW_ORDER), a))) for a in (2, 3)},
}


def pinned():
    return json.loads(PINNED.read_text())["session"]


def pytest_generate_tests(metafunc):
    if "label" in metafunc.fixturenames:
        metafunc.parametrize("label", sorted(ANSWERS))


def test_session_answer_is_pinned(label):
    assert _digest(ANSWERS[label]()) == pinned()[label]


def check():
    """Compare every answer with its pin; print each mismatch and return
    the exit status, 1 if any answer differs."""
    pins = pinned()
    bad = [label for label in sorted(ANSWERS) if _digest(ANSWERS[label]()) != pins.get(label)]
    for label in bad:
        print("mismatch: %s" % label)
    print("%d of %d session answers match their pins" % (len(ANSWERS) - len(bad), len(ANSWERS)))
    return 1 if bad else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="check the session answers against their pins")
    ap.add_argument("--check", action="store_true", help="compare every answer with bench/pinned.json")
    if not ap.parse_args().check:
        ap.error("nothing to do without --check")
    sys.exit(check())
