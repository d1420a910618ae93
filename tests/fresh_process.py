"""Run a snippet of Python in a fresh interpreter, so that a test can see
which cobcalc modules a command or an access loads from nothing.

The child compiles cobcalc from source and writes no bytecode
(PYTHONDONTWRITEBYTECODE=1), the way a command runs in a fresh checkout
where bytecode cannot be written."""

import json
import os
import subprocess
import sys

import cobcalc

SRC = os.path.dirname(os.path.dirname(cobcalc.__file__))

# the cobcalc modules the child holds, sorted; a snippet prints it last
LOADED = "sorted(m for m in sys.modules if m == 'cobcalc' or m.startswith('cobcalc.'))"


def run_fresh(code, *args):
    """Run `code` with `args` as sys.argv[1:] in a new interpreter and
    return the JSON value of the last line it prints."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])
