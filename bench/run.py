"""roughbody benchmark: one workload, inputs from a seed, timed in-process.

    python3 bench/run.py --workload flatnorm-lp|mesh-build|campaigns \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the program is imported from the
checkout's src/ and nowhere else, and the run exits 2 without a result when
src/roughbody is missing.  Set-up imports roughbody afresh and writes the
workload's inputs; it is timed SETUPS times before every round and setup_s is
the median of all of them (spread over the run, so that it averages the
host's speed as wall_s does).  Each round runs the operations on the inputs
of the set-up just before it; rounds repeat while the next one still fits in
--seconds (at least one round).  Each operation's output is checked outside
the timed region.  wall_s is the sum over operations of each one's median
time, i.e. the time of one typical round.

With --trace 1 the run alternates untraced and traced rounds (at least one
of each) and reports per-layer metrics instead: call counts and work counts
from the first traced round (they repeat exactly for a seed), self times as
medians over traced rounds, and trace.overhead_s, the traced minus the
untraced round time.  The first traced round's span tree is written to
.bench_work/traces/.

The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3  # set-ups timed before each round
MODULES = ("cli", "io", "generate", "mesh", "chains", "bodies", "flatnorm", "forms")

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program() -> SimpleNamespace:
    """Import roughbody from src/ as a fresh process would (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "roughbody" or n.startswith("roughbody.")]:
        del sys.modules[name]
    rb = SimpleNamespace(**{m: importlib.import_module(f"roughbody.{m}") for m in MODULES})
    where = Path(rb.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"roughbody was imported from {where}, not from {SRC}")
    return rb


def run_oracle(tasks: list[dict]) -> list[float]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "oracle.py")],
        input=json.dumps(tasks),
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"oracle failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def set_up(setup, seed: int, run_dir: Path, setup_times: list[float]):
    """Import the program and write the inputs SETUPS times; keep the last set-up."""
    for old in run_dir.iterdir():
        shutil.rmtree(old)
    for j in range(SETUPS):
        inputs = run_dir / f"setup{len(setup_times)}"
        inputs.mkdir()
        t0 = perf_counter()
        rb = import_program()
        wl = setup(rb, seed, inputs)
        setup_times.append(perf_counter() - t0)
    return wl


def measure(setup, seed: int, run_dir: Path, seconds: float, tracer: layers.Tracer | None):
    """Run whole rounds; return per-op times, set-up times, round totals, spans and failure counts."""
    setup_times: list[float] = []
    expect = None
    times: list[list[float]] = []
    totals = {False: [], True: []}  # round time of the timed calls, untraced / traced
    traced_rounds: list[list] = []
    attempted = failed = 0
    problems: list[str] = []
    start = perf_counter()
    rounds = 0
    while True:
        if tracer is not None:
            tracer.uninstall()
        wl = set_up(setup, seed, run_dir, setup_times)
        if expect is None:  # the same seed gives the same inputs in every set-up
            expect = run_oracle(wl.oracle_tasks)
            times = [[] for _ in wl.ops]
        wl.expect = expect
        ops = wl.ops
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        state: dict = {}
        total = 0.0
        for i, op in enumerate(ops):
            attempted += 1
            if tracer is not None:
                tracer.active = traced
            t0 = perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # a crash counts as a failed operation
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            total += dt
            if not traced:
                times[i].append(dt)
            if error is None:
                try:
                    error = op.check(out, state)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                if not op.known_fault:
                    problems.append(f"{op.name}: {error}")
        totals[traced].append(total)
        if traced:
            traced_rounds.append(tracer.take())
        rounds += 1
        elapsed = perf_counter() - start
        if tracer is not None and rounds < 2:
            continue
        if elapsed + elapsed / rounds > seconds:
            break
    return wl.ops, times, setup_times, totals, traced_rounds, attempted, failed, problems


def per_layer_metrics(traced_rounds: list[list], totals) -> dict:
    per_round = [layers.layer_totals(spans) for spans in traced_rounds]
    out = {}
    for name, unit, _ in layers.metric_names():
        if name == "trace.overhead_s":
            value = statistics.median(totals[True]) - statistics.median(totals[False])
        elif name.endswith(".self_s"):
            value = statistics.median(r.get(name, 0.0) for r in per_round)
        else:
            value = per_round[0].get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "roughbody" / "__init__.py").is_file():
        sys.stderr.write(f"no program to benchmark: {SRC / 'roughbody'} is missing\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ROUGHBODY_SEED", None)  # it would override every campaign's --seed

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK))
    tracer = layers.Tracer() if args.trace else None
    try:
        ops, times, setup_times, totals, traced_rounds, attempted, failed, problems = measure(
            WORKLOADS[args.workload], args.seed, run_dir, args.seconds, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)

    for op, ts in zip(ops, times):
        print(f"{op.name:40s} median {statistics.median(ts):.4f} s of", " ".join(f"{t:.4f}" for t in ts))
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        layers.write_spans(traced_rounds[0], traces / f"{args.workload}-seed{args.seed}.json")
        metrics = per_layer_metrics(traced_rounds, totals)
    else:
        metrics = {
            "wall_s": {"value": sum(statistics.median(ts) for ts in times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
