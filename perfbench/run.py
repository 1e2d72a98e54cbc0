"""Benchmark of the ordcopies package in ``src/``.

Usage (from the repository root):

    python3 perfbench/run.py --workload property-mix --seed 1 --seconds 30 --trace 0

Workloads: cli-oneshot, property-mix, alignment-heavy (see README.md next
to this file).  With ``--trace 0`` the last line of stdout is a JSON object
with every end-to-end metric; with ``--trace 1`` it carries every per-layer
metric instead.  The lines before it record the environment, every failing
op and, on alignment-heavy, every failing defect probe by family and size.  Exit code 2 means the package could not
be found or the arguments were wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread: numpy's BLAS must not fan out, here or in the children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("cli-oneshot", "property-mix", "alignment-heavy")
SETUP_TRIALS = 7
MIN_OPS = 100
SPAN_CAP = 100_000
LAYERS = ("cli", "ordinals", "cubesets", "layered", "posets", "forcing")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_OPS = {
    "ordinals": ("parse", "arith", "cmp", "render"),
    "cubesets": ("build", "bool", "order_type", "fubini", "select_rank", "copy"),
    "layered": ("build", "sset", "supp", "ideal", "bool", "fusion", "order_type"),
    "posets": ("text", "sep_mod", "sep_quot", "is_separative", "product", "iso"),
    "forcing": ("factorize", "render", "parse"),
}
CLI_COMMANDS = ("ord", "set", "layer", "poset", "factorize")


def per_layer_units():
    units = {"cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms"}
    for command in CLI_COMMANDS:
        units[f"cli.{command}.p50_ms"] = "ms"
    for layer, ops in LAYER_OPS.items():
        for op in ops:
            units[f"{layer}.{op}.calls"] = "count"
            units[f"{layer}.{op}.busy_s"] = "s"
    units["ordinals.nesting.max_ok_depth"] = "count"
    units["cubesets.bool.aligned_cols"] = "count"
    units["cubesets.bool.result_leaves"] = "count"
    units["cubesets.bool.kept_ratio"] = "ratio"
    units["posets.sep_quot.max_m_ok"] = "count"
    for layer in LAYERS:
        units[f"{layer}.failed"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every family, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_child(code, env, workdir):
    """Wall time in seconds of a fresh interpreter running ``code``."""
    import workloads

    start = time.perf_counter()
    status, _, stderr, _ = workloads.run_child([sys.executable, "-c", code], env, workdir)
    elapsed = time.perf_counter() - start
    if status != 0:
        fail(f"child {code!r} exited {status}: {stderr.strip()}")
    return elapsed


def environment(args, ops_per_round):
    import numpy
    import workloads

    git_sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ordcopies").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sizes = {"size": args.size}
    if args.workload == "alignment-heavy":
        tiny = args.size == "tiny"
        sizes["cube_rungs_dim_k_reps"] = workloads.TINY_CUBE_RUNGS if tiny else workloads.CUBE_RUNGS
        sizes["layered_rungs_k_reps"] = workloads.TINY_LAYERED_RUNGS if tiny else workloads.LAYERED_RUNGS
        sizes["poset_rungs_m_reps"] = workloads.TINY_POSET_RUNGS if tiny else workloads.POSET_RUNGS
        sizes["nesting_rungs_depth_reps"] = workloads.TINY_NESTING_RUNGS if tiny else workloads.NESTING_RUNGS
        sizes["defect_probe_m"] = (
            workloads.TINY_DEFECT_POSET_SIZES if tiny else workloads.DEFECT_POSET_SIZES
        )
        sizes["defect_probe_depth"] = (
            workloads.TINY_DEFECT_NESTING_DEPTHS if tiny else workloads.DEFECT_NESTING_DEPTHS
        )
    sizes["ops_per_round"] = ops_per_round
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def make_workload(args, env, workdir):
    import workloads

    if args.workload == "cli-oneshot":
        return workloads.CliOneshot(args.seed, args.size, env, workdir)
    if args.workload == "property-mix":
        return workloads.PropertyMix(args.seed, args.size)
    return workloads.AlignmentHeavy(args.seed, args.size)


def run_rounds(wl, seconds, trace, min_ops):
    """Run whole rounds until ``seconds`` have passed and enough ops ran.

    Returns the op records and the per-op timed seconds of each round, split
    into untraced and traced rounds.  With tracing on, odd rounds are traced
    until ``SPAN_CAP`` spans are held, which bounds memory and the span file.
    """
    import tracing

    null = tracing.NullTracer()
    spans = tracing.SpanTracer() if trace else None
    records = []
    round_times = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = trace and index % 2 == 1 and len(spans.spans) < SPAN_CAP
        tracer = spans if traced else null
        ops = wl.round(index)
        latencies = []
        for position, op in enumerate(ops):
            tracer.begin_op(f"{index}:{position}", f"op.{op.family}")
            start = time.perf_counter()
            try:
                out = op.run(tracer)
                error = None
            except Exception as exc:  # a failing op is recorded, not fatal
                error = f"raised {type(exc).__name__}: {str(exc)[:160]}"
            elapsed = time.perf_counter() - start
            tracer.end_op(error is not None)
            raised = error is not None
            if not raised:
                try:
                    error = op.check(out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {str(exc)[:160]}"
            out = None  # let a large result go before the next op
            latencies.append(elapsed)
            records.append((op.family, op.size, elapsed, raised, error))
        round_times[traced].append(latencies)
        index += 1
        if time.perf_counter() >= deadline and len(records) >= min_ops and index >= 2:
            return records, round_times, spans


def run_defect_probes(ops):
    """Run each defect probe once, untimed, as records like the timed ones."""
    import tracing

    null = tracing.NullTracer()
    records = []
    for op in ops:
        raised = False
        try:
            error = op.check(op.run(null))
        except Exception as exc:
            raised = True
            error = f"raised {type(exc).__name__}: {str(exc)[:160]}"
        records.append((op.family, op.size, 0.0, raised, error))
    return records


def summarize_failures(records):
    import workloads

    groups = {}
    for family, size, _, raised, error in records:
        if error is None:
            continue
        key = (family, size, error if not raised else error.split(":", 1)[0])
        groups[key] = groups.get(key, 0) + 1
    failures = []
    for (family, size, error), count in sorted(groups.items(), key=lambda kv: str(kv[0])):
        failures.append({
            "family": family,
            "size": size,
            "count": count,
            "error": error,
            "known_defect": workloads.known_defect(family, size),
        })
    return failures


def percentile(latencies, decile):
    return statistics.quantiles(latencies * 2 if len(latencies) < 2 else latencies, n=10)[decile - 1]


def end_to_end(records, round_times, setup_s, rss_kb):
    # Percentiles are taken per round, over every attempted op at the time
    # it took, and the median over rounds is reported: every round runs the
    # same mix of families, and a burst of noise on the host moves one round.
    rounds = round_times[False]
    timed = sum(elapsed for _, _, elapsed, _, _ in records)
    ok = sum(1 for r in records if r[4] is None)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(r) for r in rounds),
        "throughput_ops_s": ok / timed if timed else 0.0,
        "latency_p50_ms": statistics.median(statistics.median(r) for r in rounds) * 1e3,
        "latency_p90_ms": statistics.median(percentile(r, 9) for r in rounds) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def probe(args, env, workdir, spans):
    """Per-layer figures that no workload loop gives: CLI start-up costs
    and the largest rung of each scaling ladder that still succeeds."""
    import tracing
    import workloads

    null = tracing.NullTracer()
    figures = {}
    floors = [timed_child("pass", env, workdir) for _ in range(SETUP_TRIALS)]
    imports = [timed_child("import ordcopies.cli", env, workdir) for _ in range(SETUP_TRIALS)]
    floor = statistics.median(floors)
    figures["cli.interpreter_ms"] = floor * 1e3
    figures["cli.import_ms"] = (statistics.median(imports) - floor) * 1e3

    files = {
        "cube.json": json.dumps({"dim": 2, "prefix": [], "cycle": [
            {"dim": 1, "prefix": [1], "cycle": [1, 0]}, {"dim": 1, "prefix": [], "cycle": [0]}]}),
        "layer.json": json.dumps({"prefix": ["full", {"dim": 2, "prefix": [], "cycle": [
            {"dim": 1, "prefix": [], "cycle": [1]}]}], "tail": ["full", "empty"]}),
        "poset.txt": "3\n110\n010\n001\n",
    }
    for name, content in files.items():
        (Path(workdir) / name).write_text(content, encoding="utf-8")
    commands = [
        ["ord", "add", "w^(2)*3 + w + 1", "w*2"],
        ["set", "type", "--file", str(Path(workdir) / "cube.json")],
        ["layer", "sset", "--file", str(Path(workdir) / "layer.json"), "1"],
        ["poset", "sq", "--file", str(Path(workdir) / "poset.txt")],
        ["factorize", "w^(w+2)*3 + w^5*2 + 4"],
    ]
    import ordcopies.cli as cli

    mains = []
    for argv in commands * 4:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        mains.append(time.perf_counter() - start)
        if code != 0:
            figures["cli.failed"] = figures.get("cli.failed", 0) + 1
    figures["cli.main_ms"] = statistics.median(mains) * 1e3
    for argv in commands * 3:
        spans.begin_op("probe", "op.cli.probe")
        code, _, _, _ = spans.call(
            f"cli.{argv[0]}", workloads.run_child,
            [sys.executable, "-m", "ordcopies"] + argv, env, workdir,
        )
        spans.end_op(code != 0)
        if code != 0:
            figures["cli.failed"] = figures.get("cli.failed", 0) + 1

    rng = random.Random(f"{args.seed}:probe")
    depths = [d for d, _ in workloads.NESTING_RUNGS] + list(workloads.DEFECT_NESTING_DEPTHS)
    figures["ordinals.nesting.max_ok_depth"] = max(
        [d for d in depths if _succeeds(workloads.nesting_op(rng, d), null)], default=0
    )
    sizes = [m for m, _ in workloads.POSET_RUNGS] + list(workloads.DEFECT_POSET_SIZES)
    figures["posets.sep_quot.max_m_ok"] = max(
        [m for m in sizes if _succeeds(workloads.chain_op(m), null)], default=0
    )
    return figures


def _succeeds(op, tracer):
    try:
        return op.check(op.run(tracer)) is None
    except Exception:
        return False


def per_layer(records, round_times, spans, figures, counts):
    import tracing

    totals = tracing.layer_totals(spans.spans)
    values = {}
    for layer, ops in LAYER_OPS.items():
        for op in ops:
            calls, busy, _ = totals.get(f"{layer}.{op}", (0, 0.0, 0))
            values[f"{layer}.{op}.calls"] = calls
            values[f"{layer}.{op}.busy_s"] = busy
    durations = {}
    for name, start, end, *_ in spans.spans:
        durations.setdefault(name, []).append((end - start) / 1e6)
    for command in CLI_COMMANDS:
        samples = durations.get(f"cli.{command}", [0.0])
        values[f"cli.{command}.p50_ms"] = statistics.median(samples)
    aligned = counts.get("cubesets.bool.aligned_cols", 0)
    leaves = counts.get("cubesets.bool.result_leaves", 0)
    values["cubesets.bool.aligned_cols"] = aligned
    values["cubesets.bool.result_leaves"] = leaves
    values["cubesets.bool.kept_ratio"] = leaves / aligned if aligned else 0.0
    for layer in LAYERS:
        values[f"{layer}.failed"] = sum(
            1 for family, _, _, _, error in records
            if error is not None and family.split(".", 1)[0] == layer
        )
    values["cli.failed"] += figures.pop("cli.failed", 0)
    values.update(figures)
    traced, untraced = round_times[True], round_times[False]
    values["trace.overhead_ratio"] = (
        statistics.median(sum(r) for r in traced) / statistics.median(sum(r) for r in untraced)
    )
    units = per_layer_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ordcopies" / "__init__.py").is_file():
        fail(f"no package at {SRC / 'ordcopies'}; run from a checkout of the repository")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import ordcopies

    if Path(ordcopies.__file__).resolve().parent != (SRC / "ordcopies").resolve():
        fail(f"imported ordcopies from {ordcopies.__file__}, not from {SRC}")

    env = child_env()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        module = "ordcopies.cli" if args.workload == "cli-oneshot" else "ordcopies"
        probe_code = (
            "import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)"
        )
        timed_child(probe_code, env, workdir)  # compiles bytecode once
        imports, generations = [], []
        for _ in range(SETUP_TRIALS):
            imports.append(timed_child(probe_code, env, workdir))
            wl = make_workload(args, env, workdir)
            start = time.perf_counter()
            wl.prepare()
            generations.append(time.perf_counter() - start)
        setup_s = statistics.median(imports) + statistics.median(generations)

        min_ops = MIN_OPS if args.size == "full" else 1
        records, round_times, spans = run_rounds(wl, args.seconds, args.trace, min_ops)
        if args.workload == "cli-oneshot":
            rss_kb = wl.child_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        failures = summarize_failures(records)
        probes = getattr(wl, "defect_probes", list)()
        defects = summarize_failures(run_defect_probes(probes))
        unexplained = [d for d in defects if d["known_defect"] is None]
        if args.trace:
            figures = probe(args, env, workdir, spans)
            counts = getattr(wl, "counts", {})
            metrics = per_layer(records, round_times, spans, figures, counts)
            spans.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
        else:
            metrics = end_to_end(records, round_times, setup_s, rss_kb)
        rounds = len(round_times[False]) + len(round_times[True])
        env_record = environment(args, len(records) // rounds)
        result = {
            "correct": not failures and not unexplained,
            "attempted": len(records),
            "failed": sum(1 for r in records if r[4] is not None),
            "metrics": metrics,
        }
        with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w",
                  encoding="utf-8") as handle:
            json.dump({"environment": env_record, "failures": failures, "defect_probes": defects,
                       **result}, handle, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"environment": env_record}))
    for failure in failures:
        print(json.dumps({"failure": failure}))
    for defect in defects:
        print(json.dumps({"defect_probe": defect}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
