"""The cobcalc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is used from `src/`
as it stands, with nothing installed.  Workloads (see bench/README.md):

  verify-cli  cold `cobcalc verify --theorem all` ladder, one process per command
  chern-cli   cold `cobcalc chern` ladder, one process per command
  session     one library process running the same query list, cold then warm

With --trace 0 the run repeats the workload's operation list in rounds for
about S seconds and reports the end-to-end metrics.  With --trace 1 it runs
one untraced and one traced round and reports the per-layer metrics.  Every
output is checked: a wrong exit code, status, pinned digest or invariant
makes the operation fail.  Diagnostic lines come first; the last line of
stdout is the result object.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import reference  # noqa: E402  (bench/ is first on sys.path)
import tracer  # noqa: E402
from traced_cli import TRACE_PREFIX  # noqa: E402

PINNED = json.loads((BENCH / "pinned.json").read_text())
WORKLOADS = ("verify-cli", "chern-cli", "session")

VERIFY_LADDER = ((5, 1), (6, 2))  # (n, a) of linear_pn; the seed may mirror a
SWAP_FACTOR = {"type": "multiproj", "dims": [3]}
SETUP_SAMPLES = 3  # per round, so set-up is sampled across the whole run
DEADLINE_S = 170  # every child is killed by then, so a run ends within 180 s

CLI = [sys.executable, "-m", "cobcalc.cli"]
TRACED_CLI = [sys.executable, str(BENCH / "traced_cli.py")]


# ---------------------------------------------------------------------------
# operation lists

def _spec_arg(spec):
    return json.dumps(spec, sort_keys=True)


def verify_commands(seed):
    """`verify --theorem all` on linear_pn up the ladder and on a swapped
    square.  The seed picks a or its mirror n - 1 - a: the same pair of
    distinct fixed components in the other order, so the work is the same."""
    rng = random.Random(seed)
    cmds = []
    for n, a in VERIFY_LADDER:
        a = rng.choice((a, n - 1 - a))
        cmds.append({
            "args": ["verify", "--theorem", "all", "--builtin", "linear_pn",
                     "--n", str(n), "--a", str(a)],
            "name": "linear_pn(n=%d,a=%d)" % (n, a),
        })
    cmds.append({
        "args": ["verify", "--theorem", "all", "--builtin", "swap_square",
                 "--spec", _spec_arg(SWAP_FACTOR)],
        "name": "swap_square(dim=%d)" % sum(SWAP_FACTOR["dims"]),
    })
    return cmds


def chern_commands(seed):
    """`chern` on P^6, P^7, P^3 x P^3 and P(O + O(1) + O(2) + O(3)) over P^3.
    The seed twists the bundle by a line and reorders its summands; the
    projective bundle, and so every Chern number, stays the same."""
    rng = random.Random(seed)
    shift = rng.randint(-3, 0)
    lines = [[v] for v in rng.sample(range(shift, shift + 4), 4)]
    rungs = [
        ("P^6", {"type": "multiproj", "dims": [6]}, 7),
        ("P^7", {"type": "multiproj", "dims": [7]}, 8),
        ("P^3xP^3", {"type": "multiproj", "dims": [3, 3]}, 16),
        ("P(O+O(1)+O(2)+O(3))/P^3",
         {"type": "projbundle", "base": {"type": "multiproj", "dims": [3]}, "lines": lines}, 16),
    ]
    return [{"args": ["chern", "--spec", _spec_arg(spec)], "variety": variety, "euler": euler}
            for variety, spec, euler in rungs]


def check_cli(cmd, code, out):
    """Whether one CLI result is right: pinned exit code and stdout digest
    when this exact command is pinned, and the invariants always."""
    label = " ".join(cmd["args"])
    pin = PINNED["cli"].get(label)
    if pin is not None and (code != pin["exit"] or hashlib.sha256(out).hexdigest() != pin["sha256"]):
        return False
    if code != 0:
        return False
    try:
        obj = json.loads(out)
        if obj["status"] != "pass":
            return False
        payload = obj["payload"]
        if "variety" in cmd:
            return (payload["euler_number"] == cmd["euler"]
                    and payload["chern_numbers"] == PINNED["chern_numbers"].get(cmd["variety"]))
        # every action here is geometric, so every check passes or is skipped
        return (payload["name"] == cmd["name"] and bool(obj["checks"])
                and all(c["status"] != "fail" for c in obj["checks"]))
    except (ValueError, KeyError, TypeError):
        return False


def repeat_share(components):
    """Share of fixed components equal to an earlier one, keyed by the
    canonical spec plus the normal data."""
    if not components:
        return 0.0
    keys = [json.dumps(c, sort_keys=True) for c in components]
    return (len(keys) - len(set(keys))) / len(keys)


# ---------------------------------------------------------------------------
# child processes

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same set orders, so traced counts repeat exactly
    env.pop("COBORDISM_ORDER", None)
    return env


class Child:
    """One finished child process: exit code, output, wall time and peak RSS."""

    def __init__(self, argv, deadline):
        t0 = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
            timer.start()
            err = []
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
            self.out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
        self.wall = perf_counter() - t0
        self.code = proc.returncode
        self.err = err[0] if err else b""
        self.rss_mb = usage.ru_maxrss / 1024.0


def trace_record(child):
    for line in reversed(child.err.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    return None


# ---------------------------------------------------------------------------
# the run

class Run:
    """Counts operations and collects per-operation samples for one run."""

    def __init__(self, seconds):
        self.deadline = perf_counter() + DEADLINE_S
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0
        self.samples = {}  # label -> list of (round index, seconds) of successes
        self.failures = []
        self.components = []  # fixed components of one pass, for repeat_share
        self.ref = []  # reference samples, interleaved with the operations

    def record(self, label, rnd, seconds, ok):
        self.attempted += 1
        if ok:
            self.samples.setdefault(label, []).append((rnd, seconds))
        else:
            self.failed += 1
            self.failures.append(label)

    def fail(self, what):
        """An operation outside the per-query records that went wrong."""
        self.attempted += 1
        self.failed += 1
        self.failures.append(what)

    def reference(self):
        try:
            self.ref.append(reference.start_time())
        except (OSError, subprocess.SubprocessError):
            self.fail("reference sample")

    def child(self, argv):
        c = Child(argv, self.deadline)
        self.rss_mb = max(self.rss_mb, c.rss_mb)
        return c

    def out_of_time(self):
        return perf_counter() > self.deadline - 1

    def total(self, prefix="", first_round=0):
        """Sum over operations of the mean of their successful samples,
        taken from the rounds from `first_round` on.  The host's speed
        drifts over tens of seconds; the mean over a whole run varied less
        from run to run than the median did."""
        tot = 0.0
        for label, vals in self.samples.items():
            vals = [s for r, s in vals if r >= first_round]
            if label.startswith(prefix) and vals:
                tot += statistics.fmean(vals)
        return tot


def cli_round(run, cmds, rnd, argv0, traces=None):
    started = perf_counter()
    for cmd in cmds:
        run.reference()
        c = run.child(argv0 + cmd["args"])
        ok = check_cli(cmd, c.code, c.out)
        run.record(" ".join(cmd["args"]), rnd, c.wall, ok)
        if not ok:
            sys.stderr.write("FAILED %s (exit %d)\n%s\n" % (
                " ".join(cmd["args"]), c.code, c.err.decode(errors="replace")[-2000:]))
        if traces is not None:
            rec = trace_record(c)
            if rec is None:
                run.fail("trace record of " + " ".join(cmd["args"]))
            else:
                traces.append(rec)
        if ok and rnd == 0 and cmd["args"][0] == "verify":
            run.components += json.loads(c.out)["payload"]["action"]["components"]
        if run.out_of_time():
            break
    return perf_counter() - started


def session_round(run, seed, rnd, trace=False):
    """One session process; its first pass is recorded under labels
    'pass1:<query>' and its warm passes under 'pass2:<query>'."""
    argv = [sys.executable, str(BENCH / "session.py"), "--seed", str(seed)]
    c = run.child(argv + (["--trace"] if trace else []))
    try:
        obj = json.loads(c.out)
    except ValueError:
        obj = None
    if c.code != 0 or obj is None:
        run.fail("session process (exit %d)" % c.code)
        sys.stderr.write(c.err.decode(errors="replace")[-2000:] + "\n")
        return c.wall, None
    first = {label: digest for label, _, digest, _ in obj["passes"][0]}
    for i, records in enumerate(obj["passes"]):
        tag = "pass1" if i == 0 else "pass2"
        for label, seconds, digest, ok in records:
            pin = PINNED["session"].get(label)
            # caches must not change an answer, so all passes agree
            ok = ok and digest == first.get(label) and (pin is None or digest == pin)
            run.record(tag + ":" + label, rnd, seconds, ok)
    run.components = obj["components"]
    run.ref += obj["ref_s"]
    return c.wall, obj.get("trace")


def setup_samples(run):
    """Interpreter start plus `import cobcalc`, timed a few times."""
    times = []
    for _ in range(SETUP_SAMPLES):
        c = Child([sys.executable, "-c", "import cobcalc"], run.deadline)
        if c.code == 0:
            times.append(c.wall)
        else:
            run.fail("import cobcalc")
    return times


def host_record(workload, seed, trace):
    """Diagnostics only: never used to rescale a metric."""
    rec = {"info": "host", "workload": workload, "seed": seed, "trace": trace,
           "python": sys.version.split()[0], "nproc": os.cpu_count(),
           "loadavg": os.getloadavg(), "commit": None}
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if git.returncode == 0:
                rec["commit"] = git.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    rec["source_sha256"] = digest.hexdigest()
    t0 = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    rec["calibration_loop_s"] = perf_counter() - t0
    return rec


def steal_ticks():
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def _rounds(run, seconds, min_rounds, one_round):
    """Call one_round(index) at least min_rounds times, then while the next
    round is expected to end less than half a round past `seconds`;
    returns the round times."""
    started = perf_counter()
    times = []
    while not run.out_of_time():
        times.append(one_round(len(times)))
        if (len(times) >= min_rounds
                and perf_counter() - started + statistics.fmean(times) / 2 > seconds):
            break
    return times


def measure(run, cmds, seed, info):
    """The end-to-end metrics.  A CLI round runs each command once; wall_s
    sums each command's mean over all rounds, warm_s over every round but
    the first.  A session round is one process; wall_s sums each query's
    mean over first passes, warm_s over warm passes.  wall_ref and
    warm_ref are wall_s and warm_s over the median reference sample of the
    run (reference.py), so the host's speed phases cancel."""
    setup = []

    def one_round(i):
        setup.extend(setup_samples(run))
        if cmds is not None:
            return cli_round(run, cmds, i, CLI)
        return session_round(run, seed, i)[0]

    rounds = _rounds(run, run.seconds, 2 if cmds is not None else 1, one_round)
    setup.extend(setup_samples(run))
    if cmds is not None:
        wall, warm = run.total(), run.total(first_round=1)
    else:
        wall, warm = run.total("pass1:"), run.total("pass2:")
    for label, vals in sorted(run.samples.items()):
        info.append({"info": "operation", "label": label,
                     "mean_s": statistics.fmean(s for _, s in vals),
                     "samples_s": [s for _, s in vals]})
    ref = statistics.median(run.ref) if run.ref else 0.0
    info.append({"info": "rounds", "count": len(rounds), "round_s": rounds, "setup_s": setup,
                 "ref_s": run.ref, "repeat_share": repeat_share(run.components)})
    info.append({"info": "seconds", "wall_s": wall, "warm_s": warm, "ref_s": ref})
    if not ref:
        run.fail("reference time")
        ref = float("inf")
    return {
        "wall_ref": {"value": wall / ref, "unit": "ref"},
        "warm_ref": {"value": warm / ref, "unit": "ref"},
        # with no successful start the run is already marked incorrect
        "setup_s": {"value": statistics.median(setup) if setup else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": run.rss_mb, "unit": "MB"},
    }


def measure_traced(run, cmds, seed, info):
    """The per-layer metrics.  Untraced and traced rounds alternate; the
    layer figures come from the first traced round, every later traced
    round must repeat its call counts exactly, and the overhead is the
    median traced round minus the median untraced round."""
    records = []

    def pair(i):
        if cmds is not None:
            plain = cli_round(run, cmds, 2 * i, CLI)
            recs = []
            traced = cli_round(run, cmds, 2 * i + 1, TRACED_CLI, recs)
            rec = tracer.merge(recs)
        else:
            plain = session_round(run, seed, 2 * i)[0]
            traced, rec = session_round(run, seed, 2 * i + 1, trace=True)
            if rec is None:
                run.fail("session trace record")
                rec = tracer.merge([])
        records.append((plain, traced, rec))
        return plain + traced

    _rounds(run, run.seconds, 1, pair)
    first = records[0][2]
    calls = {name: v[0] for name, v in first["stats"].items()}
    for _, _, rec in records[1:]:
        if {name: v[0] for name, v in rec["stats"].items()} != calls:
            run.fail("traced call counts differ between rounds")
    plain = statistics.median(p for p, _, _ in records)
    traced = statistics.median(t for _, t, _ in records)
    metrics = tracer.metrics(first)
    metrics["bench.trace_overhead_s"] = {"value": traced - plain, "unit": "s"}
    info.append({"info": "trace", "pairs": len(records), "untraced_s": plain, "traced_s": traced,
                 "repeat_share": repeat_share(run.components),
                 "lattices": first["lattices"], "missing": first["missing"]})
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result object, diagnostic records)."""
    info = []
    make_cmds = {"verify-cli": verify_commands, "chern-cli": chern_commands}.get(workload)
    cmds = make_cmds(seed) if make_cmds else None  # None: the session workload
    run = Run(seconds)
    metrics = (measure_traced if trace else measure)(run, cmds, seed, info)
    info.append({"info": "failures", "fail_frac": run.failed / max(1, run.attempted),
                 "failed": run.failures})
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }
    return result, info


def main(argv=None):
    ap = argparse.ArgumentParser(description="cobcalc benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "cobcalc" / "__init__.py").is_file():
        sys.stderr.write("bench: no cobcalc sources at %s; run from a source checkout\n" % SRC)
        return 2

    steal0 = steal_ticks()
    host = host_record(args.workload, args.seed, args.trace)
    result, info = run_workload(args.workload, args.seed, args.seconds, args.trace)
    steal1 = steal_ticks()
    host["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    host["loadavg_end"] = os.getloadavg()
    for rec in [host] + info:
        print(json.dumps(rec))
    fail_frac = result["failed"] / result["attempted"]
    for name, m in result["metrics"].items():
        print("%-44s %-14.6g %s" % (name, m["value"], m["unit"]))
    for rec in info:
        if rec["info"] == "seconds":  # the raw times behind wall_ref and warm_ref
            for name in ("wall_s", "warm_s", "ref_s"):
                print("%-44s %-14.6g %s" % (name, rec[name], "s"))
    print("%-44s %-14.6g %s" % ("fail_frac", fail_frac, "frac"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
