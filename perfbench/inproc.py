"""One workload run inside this process, traced or not.

    python3 perfbench/inproc.py --workload NAME --seed N --seconds S --trace 0|1
        [--passes P] [--spans FILE]

``run.py`` starts this in a fresh process, with the package's ``src`` on
PYTHONPATH, and reads the JSON object on the last line of its output.

Census workloads call ``cli.run`` once.  ``family_corpus`` builds its
inputs, then sends every request of the corpus once per pass; untraced it
makes ``--passes`` passes and more while another fits in ``--seconds``,
traced it makes one pass.  With ``--trace 1`` the spans and counters of
``tracer.py`` are installed before the run and the per-layer metrics are
computed from them; the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import quasileib.cli as cli  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402

PINS = os.path.join(BENCH, "pins.json")
# one slice of the reference program takes about 25 ms on a 2 GHz Xeon,
# near the median request, and adds about a fifth to a pass
REFERENCE_STEP = 8


def census_op(argv):
    code = cli.run(argv)
    return {"exit_code": code}


def timed_reference():
    """Wall and CPU seconds of one slice of the reference program."""
    c0, t0 = time.process_time(), time.perf_counter()
    reference.work(REFERENCE_STEP)
    return time.perf_counter() - t0, time.process_time() - c0


def family_pass(inputs, pins, seed, tr=None):
    """One pass over the corpus.  Returns per-request latencies and the
    pass's wall and CPU seconds (the sum over its timed requests).

    Untraced, a slice of the reference program is timed before the first
    request and after each one, and every request's wall and CPU time is
    also given as a multiple of the mean of the two slices around it
    (``wall_rel``, ``cpu_rel``)."""
    import corpus

    request = corpus.request
    if tr is not None:
        request = tr.span("bench.request", request, group_arg=0)
    latencies, problems = [], []
    failed = 0
    wall = cpu = 0.0
    timed, refs = [], []
    invariants_pins = pins["family_corpus"]["invariants"]
    digests = pins["family_corpus"]["digests_seed0"] if seed == 0 else {}
    if tr is None:
        gc.collect()
        refs.append(timed_reference())
    for label, obj in inputs:
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            invariants, output = request(label, obj)
        except Exception as exc:  # a failed request is counted, not fatal
            problems.append(f"{label}: {type(exc).__name__}: {exc}")
            failed += 1
            output = None
        dt = time.perf_counter() - t0
        dc = time.process_time() - c0
        if tr is None:
            refs.append(timed_reference())
        if output is None:
            continue
        wall += dt
        cpu += dc
        latencies.append(dt)
        timed.append((dt, dc, len(refs) - 1))
        found = corpus.check(
            label, invariants, output, invariants_pins.get(label), digests.get(label)
        )
        problems += found
        failed += bool(found)
    wall_rel, cpu_rel = [], []
    if tr is None:
        for dt, dc, k in timed:
            (w0, c0), (w1, c1) = refs[k - 1], refs[k]
            wall_rel += reference.relative([dt], [w0, w1])
            cpu_rel += reference.relative([dc], [c0, c1])
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "wall_rel": sum(wall_rel),
        "cpu_rel": sum(cpu_rel),
        "latencies": latencies,
        "latencies_rel": wall_rel,
        "reference_s": sum(w for w, _ in refs),
        "problems": problems,
        "failed": failed,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--argv", default="", help="census arguments, JSON list")
    parser.add_argument("--spans")
    args = parser.parse_args()
    t_begin = time.perf_counter()

    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    family = args.workload == "family_corpus"
    if family:
        import corpus  # imported before the wrappers go in, so they reach it
    else:
        census_argv = json.loads(args.argv)
        # the GF(2) sweep is imported lazily by the census; import it here,
        # if the package still has it, so that it is wrapped
        if "gf2" in census_argv and importlib.util.find_spec("quasileib._gf2sweep"):
            importlib.import_module("quasileib._gf2sweep")

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()

    out = {}
    if family:
        inputs = corpus.build(args.seed)
        passes = []
        t_op = time.perf_counter()
        if tr is not None:
            tr.reset_counts()
            result = tr.span("bench.op", family_pass)(inputs, pins, args.seed, tr)
            passes.append(result)
        else:
            while True:
                t_pass = time.perf_counter()
                passes.append(family_pass(inputs, pins, args.seed))
                now = time.perf_counter()
                if len(passes) >= args.passes and 2 * now - t_pass - t_op > args.seconds:
                    break
        t_end = time.perf_counter()
        keys = ("wall_s", "cpu_s", "wall_rel", "cpu_rel")
        out["passes"] = [{k: p[k] for k in keys} for p in passes]
        out["latencies"] = [x for p in passes for x in p["latencies"]]
        out["latencies_rel"] = [x for p in passes for x in p["latencies_rel"]]
        out["problems"] = [x for p in passes for x in p["problems"]]
        out["attempted"] = len(inputs) * len(passes)
        out["failed"] = sum(p["failed"] for p in passes)
        # the reference slices are not the workload's time
        t_end -= sum(p["reference_s"] for p in passes)
    else:
        gc.collect()
        t_op = time.perf_counter()
        if tr is not None:
            tr.reset_counts()
            result = tr.span("bench.op", census_op)(census_argv)
        else:
            result = census_op(census_argv)
        t_end = time.perf_counter()
        out.update(result)
    out["op_s"] = t_end - t_op
    if tr is not None:
        out["metrics"] = tracing.layer_metrics(tr, "bench.op")
        if args.spans:
            tr.dump(args.spans)
    out["bench_s"] = (time.perf_counter() - t_begin) - out["op_s"]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
