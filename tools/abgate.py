#!/usr/bin/env python3
"""Same-machine A/B gate over the repository benchmark.

    python3 tools/abgate.py <base-revision>

Checks <base-revision> out into a temporary git worktree and runs every
workload of BENCHMARK.json PAIRS times on each side: the base worktree and
the checkout this script sits in (the head). Each pair runs both sides at
the same seed, and the side that goes first alternates from pair to pair.
Every run is `<command> --workload W --seed i --seconds <run_seconds>
--trace 0`, with the command and run length taken from BENCHMARK.json.

A (workload, end-to-end metric) pair regresses when both of these hold:
  - the head median is worse than the base median by more than the
    metric's bound times the base median;
  - an exact one-sided Mann-Whitney U test says the head runs are worse
    than the base runs with p < ALPHA.
The first condition is the bound BENCHMARK.json fixes; the second keeps a
shift that the run-to-run spread explains from failing the gate.

Exit status: 0 when no pair regresses, 1 when one does, 2 when the
comparison cannot be made: bad usage, an unknown revision, a run that
exits non-zero or reports `correct: false`, or machine fingerprints
(cpu, num_cpu, gomaxprocs, go) that differ between runs.
"""
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 5
ALPHA = 0.05
FINGERPRINT_KEYS = ("cpu", "num_cpu", "gomaxprocs", "go")


class GateError(Exception):
    """The comparison cannot be made; the gate exits 2."""


def u_statistic(worse, better):
    """Twice the Mann-Whitney U of `worse` over `better`: each pair in
    which the `worse` value is larger scores 2 and each tie scores 1, so
    the count stays an integer.

    >>> u_statistic([2, 3], [1, 2])
    7
    """
    return sum(2 if w > b else 1 if w == b else 0 for w in worse for b in better)


def mann_whitney_p(base, head):
    """Exact one-sided p-value that `head` values run larger than `base`.

    Pools both samples and counts, over every way to split the pool into
    groups of the two sizes (C(10,5) = 252 splits for 5 against 5), the
    share whose U is at least the observed one. Enumerating the splits
    makes the test exact with ties.

    Fully separated samples give the smallest p, one split in 252:

    >>> mann_whitney_p([1, 2, 3, 4, 5], [6, 7, 8, 9, 10]) == 1 / 252
    True

    Identical samples give p = 1, and so does a head that runs smaller:

    >>> mann_whitney_p([3, 3, 3, 3, 3], [3, 3, 3, 3, 3])
    1.0
    >>> mann_whitney_p([6, 7, 8, 9, 10], [1, 2, 3, 4, 5])
    1.0

    Ties between the samples count one half each:

    >>> round(mann_whitney_p([1, 2, 2, 3, 3], [2, 3, 3, 4, 4]), 4)
    0.0952
    """
    pool = list(base) + list(head)
    observed = u_statistic(head, base)
    at_least = total = 0
    for picked in itertools.combinations(range(len(pool)), len(head)):
        chosen = set(picked)
        worse = [pool[i] for i in picked]
        rest = [v for i, v in enumerate(pool) if i not in chosen]
        total += 1
        if u_statistic(worse, rest) >= observed:
            at_least += 1
    return at_least / total


def run(checkout, command, workload, seed, seconds):
    """Runs one benchmark in `checkout` and returns (fingerprint, metrics)."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    where = f"{workload} seed {seed} in {checkout}"
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise GateError(f"{where}: exit status {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    fingerprint = None
    try:
        for line in lines:
            if line.startswith("# fingerprint "):
                fingerprint = json.loads(line[len("# fingerprint "):])
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as err:
        raise GateError(f"{where}: unreadable output: {err}")
    if fingerprint is None:
        raise GateError(f"{where}: no fingerprint line")
    if not result.get("correct"):
        raise GateError(f"{where}: reports correct: false")
    return fingerprint, {k: v["value"] for k, v in result["metrics"].items()}


def judge(metric, base, head):
    """Returns (base median, head median, p, regression?) for one metric.
    Values of a higher-is-better metric are negated for the U test, so
    it always asks whether the head runs are worse."""
    mb, mh = statistics.median(base), statistics.median(head)
    if metric["better"] == "lower":
        p = mann_whitney_p(base, head)
        worse = mh > mb + metric["bound"] * abs(mb)
    else:
        p = mann_whitney_p([-v for v in base], [-v for v in head])
        worse = mh < mb - metric["bound"] * abs(mb)
    return mb, mh, p, worse and p < ALPHA


def compare(bench, sides):
    """Runs every workload on both sides and prints the verdict table.
    Returns the exit status."""
    command, seconds = bench["command"], bench["run_seconds"]
    machine = None
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        samples = {side: [] for side in sides}
        for seed in range(1, PAIRS + 1):
            for side in ("base", "head") if seed % 2 else ("head", "base"):
                fp, metrics = run(sides[side], command, workload, seed, seconds)
                seen = {k: fp.get(k) for k in FINGERPRINT_KEYS}
                if machine is None:
                    machine = seen
                elif seen != machine:
                    raise GateError(f"fingerprint {seen} of {side} differs from {machine}")
                samples[side].append(metrics)
                print(f"abgate: {workload} seed {seed} {side}: p50_ms {metrics['p50_ms']:.1f}",
                      file=sys.stderr, flush=True)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [m[name] for m in samples["base"]]
            head = [m[name] for m in samples["head"]]
            rows.append((workload, name) + judge(metric, base, head))

    print(f"# machine {json.dumps(machine)}; {PAIRS} pairs per workload, alpha {ALPHA}")
    print(f"{'workload':<10} {'metric':<14} {'base':>12} {'head':>12} {'head/base':>9} {'p':>7}  verdict")
    failed = 0
    for workload, name, mb, mh, p, bad in rows:
        ratio = f"{mh / mb:9.3f}" if mb else f"{'-':>9}"
        failed += bad
        print(f"{workload:<10} {name:<14} {mb:12.4f} {mh:12.4f} {ratio} {p:7.4f}  "
              f"{'REGRESSION' if bad else 'ok'}")
    print(f"abgate: {failed} regression(s) in {len(rows)} workload/metric pairs")
    return 1 if failed else 0


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/abgate.py <base-revision>", file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rev = subprocess.run(["git", "rev-parse", "--verify", "--quiet", argv[1] + "^{commit}"],
                         cwd=root, stdout=subprocess.PIPE, text=True)
    if rev.returncode != 0:
        print(f"abgate: unknown revision {argv[1]!r}", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix="abgate-")
    tree = os.path.join(tmp, "base")
    try:
        subprocess.run(["git", "worktree", "add", "--detach", tree, rev.stdout.strip()],
                       cwd=root, check=True, stdout=subprocess.DEVNULL)
        return compare(bench, {"base": tree, "head": root})
    except (GateError, subprocess.CalledProcessError) as err:
        print(f"abgate: {err}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=root,
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
