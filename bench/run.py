"""Benchmark harness for opinionnet: seeded fixtures, timed CLI chains, checks.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

One process generates the workload's fixtures from --seed, then repeats the
workload's three-step chain (closed loop, one chain at a time, in-process
through ``opinionnet.cli.main``) until --seconds have passed, at least once.
The first chain only warms the process up. Every step's outputs are checked
after it, outside the timed region. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics (medians over the chains, with
times scaled to the reference speed of ``reference_sample``) and
--trace 1 the per-layer metrics of layers.py, from chains run with every
layer's functions wrapped, alternating with untraced chains so the tracing
overhead is measured too. A full record (machine facts, every sample, every
span) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import mean, median

import fixtures
from layers import PER_LAYER_UNITS, chain_metrics, instrument, median_metrics
from spans import Tracer
from workloads import WORKLOADS, Context, timed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUP_SAMPLES = 5  # at least
SETUP_EVERY_S = 1.5  # a set-up sample follows any step this long after the last sample
# Declared times are scaled to the speed at which reference_sample() takes
# this long; see the README's "Steadiness" section.
REFERENCE_S = 0.04
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "step1_s": "s", "step2_s": "s"}

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import opinionnet.cli\n"
    "opinionnet.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def pin_threads() -> None:
    """One pair-scan thread, and BLAS/OpenMP pools of at most nproc (capped at 2)."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPINIONNET_THREADS"] = "1"
    for var in THREAD_VARS:
        os.environ[var] = str(min(2, nproc))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))


def machine_facts(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 has no mode argument
        blas = {}
    revision = None
    if (ROOT / ".git").exists():  # a bench checkout is not a repository; never look above it
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in ("OPINIONNET_THREADS", *THREAD_VARS)},
        "git_revision": revision,
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_sample() -> float:
    """Seconds from a fresh interpreter to an imported opinionnet with its parser built."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


_reference_codes = None


def reference_sample() -> float:
    """Seconds for a fixed piece of numpy work that is not the program's.

    It measures how fast the machine runs right now: this host's CPU speed
    drifts by up to 1.7x over minutes, so the harness samples it before every
    step and scales the declared times to REFERENCE_S. It works in blocks of
    50 rows so its arrays stay under 1 MB, below any workload's peak RSS.
    """
    global _reference_codes
    import numpy as np

    if _reference_codes is None:
        hashed = np.arange(200 * 13, dtype=np.int64) * 2654435761 % 4294967291
        _reference_codes = (hashed % 5).astype(np.int8).reshape(200, 13)
    codes = _reference_codes
    t0 = time.perf_counter()
    for _ in range(18):
        for lo in range(0, len(codes), 50):
            block = np.abs(codes[lo:lo + 50, None, :] - codes[None, :, :])
            np.nonzero(block.sum(axis=2, dtype=np.int32) > 20)
    return time.perf_counter() - t0


class SetupSampler:
    """Set-up samples spread over the whole run.

    A sample follows any step that ends SETUP_EVERY_S or more after the last
    sample, so their median does not hang on the machine's speed in one second.
    """

    def __init__(self):
        self.samples = []
        self.last = time.perf_counter()

    def after_step(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.samples.append(setup_sample())
            self.last = time.perf_counter()


def run_chain(workload, ctx, tracer=None, after_step=None) -> dict:
    """One pass over the workload's steps; returns step times and check problems.

    ``after_step`` runs after each step's check, outside the timed region.
    """
    ctx.tracer = tracer
    if tracer is not None:
        instrument(tracer)
    seconds, problems, reference = [], [], []
    try:
        for step in workload.steps:
            reference.append(reference_sample())
            if step.prefix:  # a step must not pass on an earlier chain's outputs
                ctx.reported.pop(step.prefix, None)
                for stale in ctx.workdir.glob(step.prefix + ".*"):
                    stale.unlink()
            gc.collect()
            elapsed, result = timed(step, ctx)
            seconds.append(elapsed)
            try:
                problems.append(step.check(ctx, result, workload.name, step))
            except Exception:
                problems.append([f"check raised: {traceback.format_exc()}"])
            if after_step is not None:
                after_step()
    finally:
        if tracer is not None:
            tracer.restore()
        ctx.tracer = None
    return {"seconds": seconds, "problems": problems, "reference": reference}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    facts = machine_facts(seed)
    # one untimed import compiles the bytecode, which users pay once per
    # install, not per command
    setup_sample()
    setup = SetupSampler()
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    chains, traced, all_spans = [], [], []
    try:
        ctx = Context(workdir, seed)
        workload.prepare(ctx)
        deadline = time.perf_counter() + seconds
        # an untimed first chain warms imports, the allocator and the file
        # cache, so the medians compare like with like however many chains fit
        warmup = run_chain(workload, ctx)
        while True:
            t0 = time.perf_counter()
            chains.append(run_chain(workload, ctx, after_step=setup.after_step))
            if trace:
                tracer = Tracer()
                traced.append(run_chain(workload, ctx, tracer))
                traced[-1]["layers"] = chain_metrics(tracer.spans)
                all_spans.append([s.to_dict() for s in tracer.spans])
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break
        while len(setup.samples) < SETUP_SAMPLES:
            setup.samples.append(setup_sample())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [p for chain in [warmup] + chains + traced for p in chain["problems"]]
    failed = sum(1 for p in ops if p)
    raw_steps = {s.label: median(c["seconds"][i] for c in chains)
                 for i, s in enumerate(workload.steps)}
    reference = [r for c in chains for r in c["reference"]]
    # the mean, because reference samples fall into a fast and a slow group
    # and their median jumps from one to the other
    scale = REFERENCE_S / mean(reference)
    steps = {label: value * scale for label, value in raw_steps.items()}
    raw = {"wall_s": median(sum(c["seconds"]) for c in chains), "setup_s": median(setup.samples)}
    if trace:
        metrics = median_metrics([c["layers"] for c in traced])
        # each traced chain against the untraced chain run just before it
        metrics["trace.overhead_s"] = median(sum(t["seconds"]) - sum(u["seconds"])
                                             for u, t in zip(chains, traced))
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": raw["wall_s"] * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": raw["setup_s"] * scale,
            **{s.metric: steps[s.label] for s in workload.steps if s.metric},
        }
        units = END_TO_END_UNITS
    record = {
        "workload": name, "trace": int(trace), "facts": facts, "setup_samples": setup.samples,
        "step_medians": steps, "raw_step_medians": raw_steps, "raw": raw,
        "reference_samples": reference, "scale": scale,
        "warmup": warmup, "chains": chains, "traced_chains": traced, "spans": all_spans,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "steps": {s.label: (s.metric, steps[s.label]) for s in workload.steps},
        "raw": {**raw, **raw_steps}, "reference_s": mean(reference),
        "problems": [p for p in ops if p][:5],
        "facts": facts,
    }


def print_summary(name: str, result: dict) -> None:
    """One line per metric; step metrics are shown with the step they time.

    Times are scaled to the reference speed, with the unscaled median after them.
    """
    raw = result["raw"]
    step_metrics = {metric for metric, _ in result["steps"].values()}
    for metric, entry in result["metrics"].items():
        if metric not in step_metrics:
            unscaled = f"  (unscaled {raw[metric]:.6g})" if metric in raw else ""
            print(f"{name:<6} {metric:<42} {entry['value']:>16.6g} {entry['unit']}{unscaled}")
    for label, (metric, value) in result["steps"].items():
        shown = f"{metric} = {label}" if metric else f"{label} (undeclared)"
        print(f"{name:<6} {shown:<42} {value:>16.6g} s  (unscaled {raw[label]:.6g})")
    print(f"{name:<6} {'reference_s (undeclared)':<42} {result['reference_s']:>16.6g} s  "
          f"(scale {REFERENCE_S / result['reference_s']:.4g})")
    rate = result["failed"] / result["attempted"]
    print(f"{name:<6} {'error_rate':<42} {rate:>16.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for problem in result.get("problems", []):
        print(f"{name:<6} FAILED: {problem}")


def run_all(args) -> dict:
    """Every workload, each in its own process so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} failed: {done.stderr.strip()}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=fixtures.DEFAULT_SEED,
                        help="fixture seed (default: the acceptance survey's 8675309)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure for this long, at least one chain (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opinionnet" / "__init__.py").is_file():
        print(f"error: no opinionnet sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(f"facts {json.dumps(result.pop('facts'), sort_keys=True)}")
        print_summary(args.workload, result)
        for key in ("steps", "problems", "raw", "reference_s"):
            result.pop(key)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
