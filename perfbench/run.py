"""The quasileib benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package in ``src``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, the failed ratio and host facts.

Workloads (a closed loop: one client, one operation at a time):

* ``census_gf2_d3``     -- ``census --field gf2 --dim 3 --lemmas --workers 1``
* ``census_gf2_d3_w2``  -- the same with ``--workers 2``
* ``census_gf3_d2``     -- ``census --field gf3 --dim 2 --lemmas``
* ``family_corpus``     -- every family instance under a seeded base change,
  one algebra per request (see ``corpus.py``)

With ``--trace 0`` a census operation is one fresh ``python -m
quasileib.cli census ...`` process; a ``family_corpus`` operation is one
request, timed inside a fresh process that makes passes over the corpus.
Operations repeat while another fits in ``--seconds``, with at least three
census runs or one corpus pass.  ``setup_s`` is the
wall time of a fresh process that only imports the modules the workload
uses; several are timed and the median is reported.

The host changes speed by tens of percent over seconds to minutes, so the
time metrics are ratios to a fixed reference program (``reference.py``)
timed just before and just after each operation: a fresh reference process
around each census run, an in-process slice of it around each corpus
request.  An operation's ratio is its time over the mean of the two
reference times around it.  The raw seconds are printed on the ``info``
line.

With ``--trace 1`` the same work runs in-process once untraced and twice
with spans (``tracer.py``), and the per-layer metrics come from the first
traced run.  The counts that must repeat are compared between the two.

Every census report is checked against the pinned sha256 of its bytes,
its totals, the oracle and the lemma harness, and the first one of a run
also by an orbit-stabiliser count (``orbit.py``) outside the timed region.
Every corpus request is checked as ``corpus.check`` describes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib.metadata import PackageNotFoundError, version

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, BENCH)

import orbit  # noqa: E402
import reference  # noqa: E402

CENSUS = {
    "census_gf2_d3": ["--field", "gf2", "--dim", "3", "--lemmas", "--workers", "1"],
    "census_gf2_d3_w2": ["--field", "gf2", "--dim", "3", "--lemmas", "--workers", "2"],
    "census_gf3_d2": ["--field", "gf3", "--dim", "2", "--lemmas"],
}
WORKLOADS = tuple(CENSUS) + ("family_corpus",)

# what a fresh process must import before the workload can start
SETUP_IMPORT = {
    "census": "import quasileib.cli",
    "family_corpus": "import quasileib.algebra, quasileib.census, "
    "quasileib.families, quasileib.fields, quasileib.linalg, quasileib.quasi",
}
SETUP_SAMPLES = 8
MIN_CENSUS_RUNS = 3
MIN_CORPUS_PASSES = 1
PROCESS_TIMEOUT_S = 150

# counts that must read the same in two traced runs of the same inputs
REPEATED_COUNTS = (
    "gf2sweep.survivors",
    "gf2sweep.classes",
    "algebra.validate.calls",
    "algebra.valid_ratio",
    "census.analyze_class.calls",
)



class Run:
    """Outcome of one child process, timed from the parent."""

    def __init__(self, wall, cpu, rss_mb, exit_code, stdout):
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.exit_code = exit_code
        self.stdout = stdout

    def last_json(self):
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def run_process(argv):
    """Run argv from the checkout root with the package on PYTHONPATH.

    Wall time runs from just before the process starts until it has been
    reaped; CPU time (user plus system) and peak RSS come from the rusage
    of the process and every descendant it reaped, so pool workers count
    towards CPU, and peak RSS is that of the largest single process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_path = os.path.join(WORK, f"stdout-{os.getpid()}.txt")
    with open(out_path, "w+", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    os.remove(out_path)
    return Run(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        stdout,
    )


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(workload, samples):
    """Wall times of ``samples`` fresh processes that only import what the
    workload needs."""
    kind = "family_corpus" if workload == "family_corpus" else "census"
    walls = []
    for _ in range(samples):
        run = run_process([sys.executable, "-c", SETUP_IMPORT[kind]])
        if run.exit_code != 0:
            raise SystemExit(f"error: cannot import the package from {SRC}")
        walls.append(run.wall)
    return walls


def check_census(workload, run, out_path, pins, with_orbit):
    """Problems with one census run's result, as a list of strings."""
    pin = pins["census"][workload]
    if run.exit_code != 0:
        return [f"exit code {run.exit_code}"]
    try:
        with open(out_path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return [f"no report: {exc}"]
    problems = []
    if hashlib.sha256(data).hexdigest() != pin["sha256"]:
        problems.append("report sha256 differs from the pinned one")
    try:
        report = json.loads(data)
        totals = report["totals"]
        got = [totals["scanned"], totals["valid"], totals["classes"]]
        if got != pin["totals"]:
            problems.append(f"totals {got}, expected {pin['totals']}")
        if any(c["oracle_mismatches"] for c in report["classes"]):
            problems.append("oracle mismatches")
        if report["lemma_failures"]:
            problems.append(f"lemma failures {report['lemma_failures']}")
        if with_orbit:
            total, order, _ = orbit.orbit_sum(report)
            if total != totals["valid"] or len(report["classes"]) != totals["classes"]:
                problems.append(
                    f"orbit-stabiliser sum {total} over |GL| = {order}, "
                    f"valid {totals['valid']}"
                )
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc}")
    return problems


def quantile80(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[7]


def measure_reference():
    """(wall, CPU) seconds of one fresh ``reference.py`` process."""
    run = run_process([sys.executable, os.path.join(BENCH, "reference.py")])
    if run.exit_code != 0:
        raise SystemExit("error: the reference program gave wrong counts")
    return run.wall, run.cpu


def census_untraced(workload, seconds, pins):
    out_path = os.path.join(WORK, f"census-{os.getpid()}.json")
    argv = [sys.executable, "-m", "quasileib.cli", "census"] + CENSUS[workload] + ["--out", out_path]
    # a reference run before the first census run and after each one, and
    # one set-up sample before each, so that all see the same stretches of
    # host speed
    refs = [measure_reference()]
    setup, runs, problems, failed = [], [], [], 0
    t_start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        setup += measure_setup(workload, 1)
        if os.path.exists(out_path):
            os.remove(out_path)
        run = run_process(argv)
        refs.append(measure_reference())
        found = check_census(workload, run, out_path, pins, with_orbit=not runs)
        runs.append(run)
        problems += found
        failed += bool(found)
        now = time.perf_counter()
        if len(runs) >= MIN_CENSUS_RUNS and 2 * now - t_iter - t_start > seconds:
            break
    if os.path.exists(out_path):
        os.remove(out_path)
    setup += measure_setup(workload, max(0, SETUP_SAMPLES - len(setup)))
    ref_walls = [w for w, _ in refs]
    wall_rel = reference.steady(reference.relative([r.wall for r in runs], ref_walls), ref_walls)
    cpu_rel = reference.steady(
        reference.relative([r.cpu for r in runs], [c for _, c in refs]), ref_walls
    )
    metrics = {
        "wall_rel": statistics.median(wall_rel),
        "cpu_rel": statistics.median(cpu_rel),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "setup_s": statistics.median(setup),
        "latency_p50_rel": statistics.median(wall_rel),
    }
    info = {
        "runs": len(runs),
        "steady_runs": sum(map(reference.agree, ref_walls, ref_walls[1:])),
        "wall_s": statistics.median(r.wall for r in runs),
        "cpu_s": statistics.median(r.cpu for r in runs),
        "reference_wall_s": statistics.median(w for w, _ in refs),
        "reference_cpu_s": statistics.median(c for _, c in refs),
    }
    return metrics, len(runs), failed, problems, info


def inproc(workload, seed, seconds, trace, census_out=None, spans=None, passes=1):
    argv = [
        sys.executable,
        os.path.join(BENCH, "inproc.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--passes",
        str(passes),
    ]
    if workload in CENSUS:
        argv += ["--argv", json.dumps(["census"] + CENSUS[workload] + ["--out", census_out])]
    if spans:
        argv += ["--spans", spans]
    run = run_process(argv)
    result = run.last_json() if run.exit_code == 0 else None
    return run, result


def family_untraced(seed, seconds, pins):
    # set-up samples on both sides of the corpus run
    setup = measure_setup("family_corpus", SETUP_SAMPLES // 2)
    run, result = inproc("family_corpus", seed, seconds, 0, passes=MIN_CORPUS_PASSES)
    setup += measure_setup("family_corpus", SETUP_SAMPLES - len(setup))
    if result is None:
        raise SystemExit(f"error: the corpus run exited with {run.exit_code}")
    lat = result["latencies_rel"]
    passes = result["passes"]
    metrics = {
        "wall_rel": statistics.median(p["wall_rel"] for p in passes),
        "cpu_rel": statistics.median(p["cpu_rel"] for p in passes),
        "peak_rss_mb": run.rss_mb,
        "setup_s": statistics.median(setup),
        "latency_p50_rel": statistics.median(lat),
    }
    info = {
        "passes": len(passes),
        "requests": len(lat),
        "latency_p80_rel": quantile80(lat),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "latency_p50_ms": 1000 * statistics.median(result["latencies"]),
        "latency_p80_ms": 1000 * quantile80(result["latencies"]),
    }
    return metrics, result["attempted"], result["failed"], result["problems"], info


def traced(workload, seed, pins):
    """Per-layer metrics from an in-process run with spans, plus the
    tracing overhead and the time no span accounts for."""
    setup = statistics.median(measure_setup(workload, 3))
    out_path = os.path.join(WORK, f"census-{os.getpid()}.json")
    spans_path = os.path.join(WORK, f"trace-{workload}.json")
    results, problems = [], []
    attempted = failed = 0
    for trace, spans in ((0, None), (1, spans_path), (1, None)):
        if os.path.exists(out_path):
            os.remove(out_path)
        run, result = inproc(workload, seed, 0, trace, out_path, spans)
        if result is None:
            raise SystemExit(f"error: the in-process run exited with {run.exit_code}")
        if workload in CENSUS:
            found = check_census(workload, run, out_path, pins, with_orbit=not results)
            attempted += 1
            failed += bool(found)
        else:
            found = result["problems"]
            attempted += result["attempted"]
            failed += result["failed"]
        problems += found
        results.append((run, result))
    if os.path.exists(out_path):
        os.remove(out_path)
    (_, untraced), (run1, first), (_, second) = results
    metrics = dict(first["metrics"])
    for name in REPEATED_COUNTS:
        if first["metrics"][name] != second["metrics"][name]:
            problems.append(
                f"{name} differs between traced runs: "
                f"{first['metrics'][name]} vs {second['metrics'][name]}"
            )
    layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    metrics["trace.op_s"] = first["op_s"]
    metrics["trace.untraced_op_s"] = untraced["op_s"]
    metrics["trace.overhead_s"] = first["op_s"] - untraced["op_s"]
    metrics["trace.process_wall_s"] = run1.wall
    metrics["trace.setup_s"] = setup
    metrics["trace.unattributed_s"] = (
        run1.wall - setup - first["bench_s"] - metrics["bench.loop_s"] - layer_self
    )
    return metrics, attempted, failed, problems, {"spans": os.path.relpath(spans_path, ROOT)}


def host_facts():
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:  # only the GF(2) sweep needs numpy
        numpy_version = "absent"
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "quasileib", "cli.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    pins = load_json(os.path.join(BENCH, "pins.json"))
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.trace:
        metrics, attempted, failed, problems, info = traced(args.workload, args.seed, pins)
    elif args.workload == "family_corpus":
        metrics, attempted, failed, problems, info = family_untraced(args.seed, args.seconds, pins)
    else:
        metrics, attempted, failed, problems, info = census_untraced(
            args.workload, args.seconds, pins
        )
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} are not "
              "both measured and declared in BENCHMARK.json", file=sys.stderr)
        return 2

    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    facts = dict(host_facts(), workload=args.workload, seed=args.seed)
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print("info " + " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in info.items()
    ))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"failed_ratio = {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    result = {
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
