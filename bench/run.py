"""qmrand benchmark: how long a certified guessing probability P* takes.

    python3 bench/run.py --workload {search,solve-large,entropy} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``qmrand`` from the
checkout's ``src`` directory and exits with code 2 if there is none.

The load is a closed loop with one caller in one process and one thread:
each item starts when the previous one has returned, and BLAS is pinned to
one thread.  A pass runs every item of the workload once; passes repeat
while the next one is predicted to end within ``--seconds``, and at least
one runs.  Every item is checked (``checks.py``); an item that raises any
exception, exits non-zero or fails its check is counted as failed and never
dropped or retried.

With ``--trace 0`` the last line carries the end-to-end metrics, measured
with no tracing.  With ``--trace 1`` untraced and traced passes alternate
and the last line carries the per-layer metrics of the traced passes
(``spans.py``) and the tracing overhead.  Human-readable lines before it give
every metric with its unit, the environment, and each failure.

``setup_s`` is the median of three cold set-ups, each in a fresh interpreter
(``--setup-probe``): process start, imports, writing the inputs and one
untimed warm-up item, up to the point where the first timed item would
start.  Results and spans are also written under ``.bench-out/``.
"""

import os

# Before numpy is imported anywhere in this process (and so in the set-up
# probes, which inherit the environment): on a 2-core machine a d = 6 solve
# took 1.1 s with one BLAS thread and 2.0 to 3.4 s with two.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench-out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

# Every end-to-end metric printed, and those of BENCHMARK.json (the JSON
# result): the median of a mix of unequal items moves with the seed and the
# host speed more than a whole pass does, so call_p50_s is printed only.
PRINTED = (("setup_s", "s"), ("wall_s", "s"), ("call_p50_s", "s"), ("peak_rss_mb", "MB"))
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
TAIL_MIN_ITEMS = 20   # so the tail percentile is at least the median


def prepare_imports() -> bool:
    """Put the checkout's ``src`` first on the import path."""
    src = ROOT / "src"
    if not (src / "qmrand" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


@contextmanager
def workdir():
    path = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Running items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ItemResult:
    id: str
    seconds: float
    reason: str | None   # None when the item passed its check
    output: str | None   # repr of the output, to compare passes


@dataclass(frozen=True)
class Pass:
    traced: bool
    wall: float      # elapsed, checks included; only schedules the passes
    results: list

    @property
    def busy(self) -> float:
        """The summed item times: the program's own time in this pass."""
        return sum(r.seconds for r in self.results)


def run_item(item) -> ItemResult:
    start = time.perf_counter()
    try:
        out = item.run()
    except Exception as exc:   # any failure of the program is counted, none dropped
        result = ItemResult(item.id, time.perf_counter() - start, f"{type(exc).__name__}: {exc}", None)
    else:
        seconds = time.perf_counter() - start
        try:
            reason = item.check(out)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        result = ItemResult(item.id, seconds, reason, repr(out))
        del out
    # Each CLI call is a fresh process for a user: collect this item's cyclic
    # garbage (a traceback keeps a solve's arrays alive) outside the timing,
    # so it weighs on neither the next item's time nor the peak memory.
    gc.collect()
    return result


def run_pass(items, tracer=None) -> Pass:
    results = []
    start = time.perf_counter()
    if tracer is None:
        for item in items:
            results.append(run_item(item))
    else:
        with tracer.tracing():
            for item in items:
                tracer.item = item.id
                results.append(run_item(item))
    return Pass(tracer is not None, time.perf_counter() - start, results)


def measure(items, seconds: float, tracer=None) -> list[Pass]:
    """Whole passes while the next is predicted to end within ``seconds``.

    With a tracer, passes alternate untraced and traced, at least one each.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(items, tracer if traced else None))
        if tracer is not None and len(passes) < 2:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + max(p.wall for p in passes) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Set-up time, environment
# ---------------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child mode: set up as a run does, then print the monotonic clock."""
    import workloads

    with workdir() as wd:
        _, warmup = workloads.build(args.workload, args.seed, args.size, wd)
        run_item(warmup)
        print(repr(time.monotonic()))
    return 0


def cold_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--size", args.size]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _commit() -> str:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmrand").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
    }


# ---------------------------------------------------------------------------
# Metrics and report
# ---------------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float | None, str]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < TAIL_MIN_ITEMS:
        return None, f"omitted: {n} item times, a tail with ten beyond it needs {TAIL_MIN_ITEMS}"
    k = n - 11
    return sorted(times)[k], f"p{100.0 * (k + 1) / n:.0f} of {n} items"


def consistency(passes: list[Pass]) -> list[str]:
    """Items whose verdict or output differs between passes of one run."""
    first = {}
    differing = []
    for p in passes:
        for r in p.results:
            seen = first.setdefault(r.id, (r.reason, r.output))
            if seen != (r.reason, r.output) and r.id not in differing:
                differing.append(r.id)
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "solve-large", "entropy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small items, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not prepare_imports():
        print(f"error: no qmrand sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    import spans
    import workloads

    env = environment(args)
    setups = [cold_setup_seconds(args) for _ in range(SETUP_PROBES)]
    tracer = spans.Tracer() if args.trace else None
    with workdir() as wd:
        items, warmup = workloads.build(args.workload, args.seed, args.size, wd)
        run_item(warmup)
        origin = time.perf_counter()
        passes = measure(items, args.seconds, tracer)

    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.reason is not None]
    untraced = [p for p in passes if not p.traced]
    times = [r.seconds for p in untraced for r in p.results]
    walls = [p.busy for p in untraced]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "call_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_s, tail_note = tail(times)
    notes = {
        "setup_s": f"median of {SETUP_PROBES} cold set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "wall_s": f"median over {len(walls)} untraced passes of the summed times of {len(items)} items",
        "call_p50_s": f"median of {len(times)} item times",
        "peak_rss_mb": "peak resident memory of this process",
    }
    differing = consistency(passes)

    print(f"# qmrand benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# env " + json.dumps(env))
    print(f"# closed loop, 1 caller, 1 thread: {len(untraced)} untraced and "
          f"{len(passes) - len(untraced)} traced passes of {len(items)} items")
    for name, unit in PRINTED:
        print(f"{name:<40} {e2e[name]:>14.6g} {unit:<6} {notes[name]}")
    shown = "-" if tail_s is None else f"{tail_s:.6g}"
    print(f"{'call_tail_s':<40} {shown:>14} {'s':<6} {tail_note}")
    print(f"{'fail_frac':<40} {len(failed) / len(results):>14.6g} {'1':<6} "
          f"{len(failed)} of {len(results)} items failed")
    reasons = {}
    for r in failed:
        reasons.setdefault(r.id, [r.reason, 0])[1] += 1
    for item_id, (reason, count) in reasons.items():
        print(f"fail {item_id} (x{count}): {reason}")
    for item_id in differing:
        print(f"inconsistent {item_id}: verdict or output differs between passes")

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layer = tracer.layer_metrics()
        traced_wall = statistics.median(p.busy for p in passes if p.traced)
        layer["trace.overhead_pct"] = 100.0 * (traced_wall / e2e["wall_s"] - 1.0)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
        for name, m in metrics.items():
            print(f"{name:<52} {m['value']:>14.6g} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "metrics": metrics,
        "end_to_end": e2e,
        "setup_samples": setups,
        "call_tail_s": tail_s,
        "passes": [{"traced": p.traced, "wall": p.wall,
                    "items": [[r.id, r.seconds, r.reason] for r in p.results]} for p in passes],
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write_csv(OUT_DIR / f"spans-{stem}.csv", origin)

    # correct: every item got a verdict, and the same one in every pass.
    # Items that fail their check are counted in "failed", not here.
    print(json.dumps({
        "correct": not differing,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
