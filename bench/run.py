"""Layered benchmark of biheyt: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from its
``src/``.  Each run is one process and one closed-loop client.  It sets the
workload up, then repeats rounds of fixed work until ``S`` seconds would be
exceeded (at least one round), checking every result between rounds.  More
set-ups, and on ``cli_mix`` the cold starts of the CLI, are spread between
the rounds.  It writes a result file under ``.bench_out/`` and prints one
JSON line last:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json.  Their times are
  scaled to a reference speed of the machine, sampled all through the run
  (see ``pace.py``).
* ``--trace 1``: the per-layer metrics.  Rounds alternate between untraced
  ones and ones with a span around each call the benchmark makes into a
  layer; then (for the CLI workloads) each command of one round runs again
  and is replayed through the library right after, to split it into layer
  time and CLI time.  ``tracemalloc`` runs during set-up only: under it the enumeration
  of ``boolean:4`` takes 96 s instead of 21 s and twice the memory, and
  replay spans would outgrow the CLI spans they are subtracted from.

``--tiny`` shrinks every workload; it exists for ``bench/test_bench.py``.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("enum_b4", "algebra_mix", "cli_mix", "laws_oracle")
BIHEYTING_OPS = ("implies", "subtract", "not", "conot", "dnot", "dconot",
                 "regular", "coregular", "tight", "meet", "join")


def import_package():
    """Import biheyt from this tree's src/; return the seconds it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import biheyt
    took = perf_counter() - t0
    if Path(biheyt.__file__).resolve().parent != (src / "biheyt").resolve():
        raise ImportError(f"biheyt was imported from {biheyt.__file__}, "
                          f"not from {src}")
    return took


def make_workload(name, scale, workdir):
    import workloads
    if name == "enum_b4":
        return workloads.EnumB4(scale)
    if name == "algebra_mix":
        return workloads.AlgebraMix(scale)
    if name == "cli_mix":
        return workloads.CliMix(scale, workdir)
    return workloads.LawsOracle(scale, workdir)


def quantile(values, q):
    """The q-th percentile (1..99) by statistics.quantiles, inclusive."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import biheyt; "
                "print(t, time.perf_counter())")


def import_time(times):
    """Appends when a fresh interpreter started and ended importing biheyt,
    as that interpreter measures them."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                           str(ROOT / "src")], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    times.append(tuple(map(float, proc.stdout.split())))


def cold_start(failures):
    """One fresh ``python -m biheyt.cli`` process; appends to ``failures``
    if its output does not match the recorded digest."""
    import workloads
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "biheyt.cli", "validate", "--builtin",
            "cabello18"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          timeout=120)
    want = workloads.expected()["cold_start"]
    failures.append([proc.returncode,
                     workloads.sha256(proc.stdout.decode())] != want)


def run_rounds(wl, state, libs, seconds, between=()):
    """Rounds, taking turns over ``libs``, while the next one is expected to
    end within ``seconds``; every lib gets at least one round.

    Returns the start and end of each round per lib.  The gates run between
    rounds, outside the round timer, and so do the calls in ``between``:
    they are spread over the run so that they see the same machine as the
    rounds.
    """
    rounds = [[] for _ in libs]
    latencies = []
    attempted = failed = n = done = 0
    start = perf_counter()
    while True:
        lib = libs[n % len(libs)]
        records = None   # let the previous round's results go first
        t0 = perf_counter()
        records = wl.round(state, lib, latencies)
        rounds[n % len(libs)].append((t0, perf_counter()))
        n += 1
        a, f = wl.check(state, records)
        attempted += a
        failed += f
        typical = statistics.median(t1 - t0 for r in rounds for t0, t1 in r)
        last = n >= len(libs) and perf_counter() - start + typical > seconds
        share = 1 if last or not seconds else (perf_counter() - start) / seconds
        while done < len(between) * min(1, share):
            between[done]()
            done += 1
        if last:
            return rounds, latencies, attempted, failed, records


def setups(wl, lib, seed, n):
    times = []
    for _ in range(n):
        t0 = perf_counter()
        state = wl.setup(lib, seed)
        times.append((t0, perf_counter()))
    return state, times


def timed(fn, times, *args):
    """A call that appends its own start and end to ``times``."""
    def call():
        t0 = perf_counter()
        fn(*args)
        times.append((t0, perf_counter()))
    return call


def durations(intervals):
    return [t1 - t0 for t0, t1 in intervals]


def provenance(args, scale, wl_limits):
    import biheyt
    commit = None
    try:   # a source tree without .git has no commit; do not look above it
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        pass
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src" / "biheyt").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "commit": commit,
        "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "limits": dataclasses.asdict(wl_limits),
        "default_limits": dataclasses.asdict(biheyt.DEFAULT_LIMITS),
        "scale": {k: v for k, v in dataclasses.asdict(scale).items()
                  if k != "enum_limits"},
    }


# -- the two kinds of run --------------------------------------------------------


def untraced(args, wl, first_import_s):
    """``setup_s`` is the median import time of fresh interpreters plus the
    median set-up time; both are sampled between the rounds.  Every time is
    scaled to the reference speed of ``pace.py``."""
    import spans
    from lib import Lib
    from pace import REFERENCE_S, Pace
    lib = Lib(spans.NullTracer())
    with Pace().ticking() as pace:
        state, setup_times = setups(wl, lib, args.seed, 1)
        between = [timed(wl.setup, setup_times, lib, args.seed)
                   for _ in range(wl.scale.setups[args.workload] - 1)]
        import_times, cold, cold_failed = [], [], []
        between += [lambda: import_time(import_times)
                    for _ in range(wl.scale.import_samples)]
        if args.workload == "cli_mix":
            between += [timed(cold_start, cold, cold_failed)
                        for _ in range(wl.scale.cold_samples)]
        random.Random(args.seed).shuffle(between)
        (rounds,), latencies, attempted, failed, records = run_rounds(
            wl, state, [lib], args.seconds, between)
    attempted += len(cold_failed)
    failed += sum(cold_failed)

    def scaled(intervals):
        return [pace.scaled(t0, t1) for t0, t1 in intervals]

    wall = statistics.median(scaled(rounds))
    op_s = scaled(latencies)
    metrics = {
        "setup_s": (statistics.median(scaled(import_times))
                    + statistics.median(scaled(setup_times)), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (wl.ops(state) / wall, "1/s"),
        "op_p50_ms": (1e3 * quantile(op_s, 50), "ms"),
        "op_p99_ms": (1e3 * quantile(op_s, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    detail = {
        "raw": {"setup_s": statistics.median(durations(import_times))
                + statistics.median(durations(setup_times)),
                "wall_s": statistics.median(durations(rounds)),
                "op_p50_ms": 1e3 * quantile(durations(latencies), 50),
                "op_p99_ms": 1e3 * quantile(durations(latencies), 99)},
        "first_import_s": first_import_s,
        "import_times_s": durations(import_times),
        "setup_times_s": durations(setup_times),
        "round_times_s": durations(rounds), "rounds": len(rounds),
        "cold_start_ms": cold and 1e3 * statistics.median(durations(cold)),
        "cold_start_s": durations(cold),
        "probe_s": {"reference": REFERENCE_S, "count": len(pace.starts),
                    "median": statistics.median(
                        durations(zip(pace.starts, pace.ends)))},
        "ops_per_round": wl.ops(state), "op_samples": len(latencies),
        "fail_ratio": failed / attempted, "info": wl.info(state, records),
    }
    return metrics, attempted, failed, detail


def traced(args, wl):
    import spans
    from lib import Lib
    plain = Lib(spans.NullTracer())
    tracer = spans.Tracer()
    lib = Lib(tracer)
    tracemalloc.start()
    with tracer.phase("setup"):
        state, setup_times = setups(wl, lib, args.seed,
                                    wl.scale.setups[args.workload])
    setup_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    with tracer.phase("round"):
        (rounds, base), _, attempted, failed, records = run_rounds(
            wl, state, [lib, plain], args.seconds)
    rounds, base = durations(rounds), durations(base)
    passes = {"setup": len(setup_times), "round": len(rounds)}
    mismatched = 0
    if hasattr(wl, "replay"):
        with tracer.phase("replay"):
            mismatched = wl.replay(state, lib, records)
        passes["replay"] = 1
    overhead = statistics.median(rounds) - statistics.median(base)
    metrics = layer_metrics(tracer, passes, overhead)
    detail = {
        "untraced_wall_s": statistics.median(base),
        "traced_wall_s": statistics.median(rounds),
        "tracing_overhead_s": overhead, "passes": passes,
        "replay_mismatches": mismatched,
        "setup_tracemalloc_peak_mb": setup_peak / 2**20,
        "span_summary": tracer.summary(),
        "counts": {f"{n}@{ph}": v for (n, ph), v in tracer.counts.items()},
        "spans": tracer.to_json(),
    }
    replayed = len(records) if "replay" in passes else 0
    return metrics, attempted + replayed, failed + mismatched, detail


def layer_metrics(tracer, passes, overhead):
    """Per-layer metrics from the spans.

    Times are the mean duration of one call; calls and counts are per pass
    (one set-up, one round, one replay); rates divide a count by the time
    of the spans that produced it.
    """
    summary = tracer.summary()

    def per_pass(by_phase):
        return sum(n / passes[ph] for ph, n in by_phase.items())

    def calls(name):
        return per_pass(summary[name]["calls"]) if name in summary else 0.0

    def total(name):
        return summary[name]["total_s"] if name in summary else 0.0

    def mean(name, scale):
        n = sum(summary[name]["calls"].values()) if name in summary else 0
        return scale * total(name) / n if n else 0.0

    def count(name):
        return per_pass({ph: v for (n, ph), v in tracer.counts.items()
                         if n == name})

    def rate(count_name, span):
        n = sum(v for (n, _ph), v in tracer.counts.items() if n == count_name)
        return n / total(span) if total(span) else 0.0

    m = {
        "oml.build_ms": (mean("oml.build", 1e3), "ms"),
        "oml.build_calls": (calls("oml.build"), "count"),
        "contexts.enumerate_ms": (mean("contexts.enumerate", 1e3), "ms"),
        "contexts.poset_init_ms": (mean("contexts.poset_init", 1e3), "ms"),
        "contexts.count": (count("contexts.count"), "count"),
        "presheaf.enumerate_s": (mean("presheaf.enumerate", 1), "s"),
        "presheaf.subobjects": (count("presheaf.subobjects"), "count"),
        "presheaf.subobjects_per_s": (
            rate("presheaf.subobjects", "presheaf.enumerate"), "1/s"),
        "presheaf.make_subobject_us": (
            mean("presheaf.make_subobject", 1e6), "us"),
        "presheaf.sections_ms": (mean("presheaf.sections", 1e3), "ms"),
        "presheaf.sections": (count("presheaf.sections"), "count"),
    }
    for op in BIHEYTING_OPS:
        m[f"biheyting.{op}_us"] = (mean(f"biheyting.{op}", 1e6), "us")
        m[f"biheyting.{op}_calls"] = (calls(f"biheyting.{op}"), "count")
    m.update({
        "daseinisation.daseinise_us": (
            mean("daseinisation.daseinise", 1e6), "us"),
        "daseinisation.calls": (calls("daseinisation.daseinise"), "count"),
        "oracle.check_adjunctions_s": (
            mean("oracle.check_adjunctions", 1), "s"),
        "oracle.triples_per_s": (
            rate("oracle.triples", "oracle.check_adjunctions"), "1/s"),
        "oracle.brute_ms": (mean("oracle.brute", 1e3), "ms"),
        "serialize.json_ms": (mean("serialize.json", 1e3), "ms"),
        "serialize.dot_ms": (mean("serialize.dot", 1e3), "ms"),
        "serialize.bytes_out": (count("serialize.bytes_out"), "count"),
    })
    from lib import CLI_COMMANDS
    for c in CLI_COMMANDS:
        m[f"cli.{c}_ms"] = (mean(f"cli.{c}", 1e3), "ms")
    m["cli.self_ms"] = (1e3 * cli_self(tracer), "ms")
    m["tracing.overhead_s"] = (overhead, "s")
    return m


def cli_self(tracer):
    """Mean over replayed commands of the command's CLI span minus the layer
    spans of its replay, which runs right after it."""
    cli, layers = {}, {}
    for k, (name, start, end, parent, op, phase) in enumerate(tracer.spans):
        if phase != "replay":
            continue
        if name.startswith("cli."):
            cli[op] = end - start
        elif parent is not None and tracer.spans[parent][0].startswith("replay."):
            layers[op] = layers.get(op, 0.0) + end - start
    diffs = [cli[op] - layers.get(op, 0.0) for op in cli]
    return statistics.fmean(diffs) if diffs else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"bench: cannot import biheyt from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import biheyt
    import workloads
    scale = workloads.TINY if args.tiny else workloads.FULL
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    wl = make_workload(args.workload, scale, workdir)
    try:
        if args.trace:
            metrics, attempted, failed, detail = traced(args, wl)
        else:
            metrics, attempted, failed, detail = untraced(args, wl, import_s)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    limits = (scale.enum_limits if args.workload == "enum_b4"
              else biheyt.DEFAULT_LIMITS)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {"provenance": provenance(args, scale, limits),
              "result": result, "fail_ratio": failed / attempted,
              "detail": detail}
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-tiny' if args.tiny else ''}.json")
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
