"""Self-test of the benchmark.

    python3 bench/selftest.py

1. A tiny-size run of each workload, untraced and traced, through ``run.py``
   in a subprocess: the last line has exactly the keys ``correct``,
   ``attempted``, ``failed`` and ``metrics``, and every metric named in
   ``BENCHMARK.json`` prints with its unit, both in that line and in the
   human-readable lines before it (``call_p50_s``, ``call_tail_s`` and
   ``fail_frac`` too).
2. Doctored outputs go through the same ``run_pass`` as the benchmark and
   must be counted as failed: a solve whose value exceeds its dual value, a
   searched pguess off by 1e-3, an entropy off by 1e-3 and a call that
   raises ``TypeError``.  The honest items must pass.

Prints one line per check and exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from dataclasses import replace

import run   # pins BLAS threads before numpy is imported

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split()[1:] for line in lines)


def metrics_print_with_units() -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=run.ROOT)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
            for name, m in result["metrics"].items():
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{where}: {name} has no numeric value")
            printed = dict(want, call_p50_s="s", call_tail_s="s", fail_frac="1") if trace == 0 else want
            for name, unit in printed.items():
                if not _printed(lines[:-1], name, unit):
                    problems.append(f"{where}: no line prints {name} with unit {unit}")
    return problems


def _doctor_cli(item, label, section, change):
    def doctored():
        out = item.run()
        report = json.loads(out.stdout)
        report[section] = change(report[section])
        return replace(out, stdout=json.dumps(report))

    return replace(item, id=f"{item.id}+{label}", run=doctored)


def _doctor_chain(item, label, change):
    return replace(item, id=f"{item.id}+{label}", run=lambda: change(item.run()))


def _raises(item):
    def broken():
        raise TypeError("doctored failure")

    return replace(item, id=f"{item.id}+raises", run=broken)


def doctored_items_fail() -> list[str]:
    import workloads

    with run.workdir() as wd:
        search = workloads.build("search", 3, "tiny", wd)[0][0]
        # A noisy projective POVM (with a closed form) and a random one (without).
        solve, solve_random = workloads.build("solve-large", 3, "tiny", wd)[0][:2]
        chain = workloads.build("entropy", 3, "tiny", wd)[0][0]
        honest = [search, solve, solve_random, chain]
        doctored = [
            _doctor_cli(solve_random, "value-above-dual", "sdp_at_state",
                        lambda r: dict(r, dual_value=r["pguess"] - 1e-3)),
            _doctor_cli(search, "pguess-off", "minimized",
                        lambda r: dict(r, pguess=r["pguess"] + 1e-3)),
            _doctor_chain(chain, "h_vn-off", lambda r: dict(r, h_vn=r["h_vn"] + 1e-3)),
            _raises(solve),
        ]
        verdicts = {r.id: r.reason for r in run.run_pass(honest + doctored).results}
    problems = [f"honest item {i.id} failed: {verdicts[i.id]}" for i in honest if verdicts[i.id]]
    problems += [f"doctored item {i.id} was not counted as failed" for i in doctored if not verdicts[i.id]]
    if not (verdicts[doctored[-1].id] or "").startswith("TypeError"):
        problems.append("a raised TypeError is not reported by its type")
    return problems


def main() -> int:
    if not run.prepare_imports():
        print("error: no qmrand sources next to the benchmark", file=sys.stderr)
        return 2
    failures = 0
    for check in (metrics_print_with_units, doctored_items_fail):
        problems = check()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {check.__name__}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
