"""The qfj benchmark: one command per workload, run from the checkout root.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 runs one round untraced and the same round traced, and prints the
per-layer metrics and the tracing overhead. Either way the ops are checked
after the timed phase, a JSON report goes to stdout, and the last stdout
line is {"correct", "attempted", "failed", "metrics"}.

Exits 2 without a result when the qfj sources under src/ cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170

import cli_cold  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def preflight() -> None:
    if not (ROOT / "src" / "qfj" / "__init__.py").is_file():
        raise BenchError(f"qfj sources not found under {ROOT / 'src'}")
    # also compiles the bytecode once, so no timed import pays for that
    proc = subprocess.run([sys.executable, "-c", "import qfj.cli, mpmath"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import qfj: {proc.stderr.strip()[-500:]}")


# -- statistics ----------------------------------------------------------------

def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, weights from the Beta(p(n+1), (1-p)(n+1)) distribution.
    Op costs in a round spread over four decades, so a single order
    statistic jumps between neighbouring ops of different cost; README.md
    ("End-to-end metrics") compares the ten-seed spreads of the two. Below
    20 samples (a cli_cold round) the weights would reach commands many
    times slower or faster, so the plain median is used; nothing else is
    asked of so few samples."""
    if len(values) < 20:
        if p != 0.5:
            raise ValueError("below 20 samples only the median is estimated")
        return statistics.median(values)
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def latency_tail(rows: list[dict], workload: str, key: str = "time_s") -> float:
    """Seconds per op (row[key]) at the workload's fixed tail percentile
    (see workloads.TAIL_PERCENTILE). cli_cold has 9 ops a round, too few for
    a percentile with ten samples beyond it, so its tail is the slowest
    command of each round, median over rounds."""
    percentile = workloads.TAIL_PERCENTILE[workload]
    if percentile is None:
        return statistics.median(max(row[key] for row in group) for group in by_round(rows))
    return quantile([row[key] for row in rows], percentile / 100)


def by_round(rows: list[dict]) -> list[list[dict]]:
    """Rows grouped by round (row ids are "p<round>.<index>")."""
    rounds: dict[str, list[dict]] = {}
    for row in rows:
        rounds.setdefault(row["id"].split(".")[0], []).append(row)
    return list(rounds.values())


def per_command(rows: list[dict]) -> list[dict]:
    """cli_cold: one row per command and round, at the median of its runs
    (see workloads.QUICK_RUNS); passed only if every run passed."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["id"].split(".")[0], row["kind"]), []).append(row)
    return [{"id": f"{round_id}.{kind}", "kind": kind,
             "time_s": statistics.median(r["time_s"] for r in group),
             "latency_s": statistics.median(r["latency_s"] for r in group),
             "passed": all(r["passed"] for r in group)}
            for (round_id, kind), group in groups.items()]


def round_rates(rows: list[dict]) -> list[float]:
    """Correct ops per second of scaled CPU time, per round."""
    return [sum(r["passed"] for r in group) / sum(r["time_s"] for r in group)
            for group in by_round(rows)]


def end_to_end(rows: list[dict], workload: str, setups: list[float],
               peak_rss_kb: int) -> dict:
    """Times are CPU seconds of the op's process at the reference speed (see
    README.md, "Timing"). ops_per_s is the median over rounds, so neither a
    disturbed round nor the exact workload's cold first round sets it; the
    latency quantiles pool every op of the run."""
    values = {
        "ops_per_s": statistics.median(round_rates(rows)),
        "latency_p50_ms": 1000 * quantile([row["time_s"] for row in rows], 0.5),
        "latency_tail_ms": 1000 * latency_tail(rows, workload),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def wall_clock(rows: list[dict], workload: str) -> dict:
    """The same statistics on wall time, for the report only."""
    walls = [row["latency_s"] for row in rows]
    return {"wall_s": sum(walls), "latency_p50_ms": 1000 * quantile(walls, 0.5),
            "latency_tail_ms": 1000 * latency_tail(rows, workload, key="latency_s")}


def counts(rows: list[dict]) -> dict:
    attempted = len(rows)
    failed = sum(not row["passed"] for row in rows)
    return {"attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted if attempted else 1.0}


# -- environment -----------------------------------------------------------------

def environment() -> dict:
    import mpmath.libmp
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qfj").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "git_commit": commit,
            "source_sha256": source.hexdigest(), "nproc": os.cpu_count(),
            "mpmath_backend": mpmath.libmp.BACKEND, "machine": platform.machine()}


# -- workers ---------------------------------------------------------------------

def spawn_worker(workload: str, seed: int, min_rounds: int = 1, seconds: float = 0.0,
                 trace: bool = False) -> dict:
    """Run one fresh worker process to the end; returns its report."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--min-rounds", str(min_rounds), "--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(workload: str, seed: int) -> float:
    """CPU seconds (at the reference speed) of a fresh process that only
    sets up: interpreter start,
    import, and (for exact and numeric) generating the first round."""
    if workload == "cli_cold":
        argv = [sys.executable, "-c", "import qfj.cli"]
    else:
        argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--setup-only"]
    unit_before = speed.burst()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(argv, env=child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return speed.scale(cpu, (unit_before + speed.burst()) / 2)


def run_cli_round(seed: int, round_index: int, references: dict, traced: bool):
    """One round of the nine commands. Calibration bursts run in this process
    between commands; a command is scaled by the mean of the bursts on
    either side of it."""
    rows, layers, imports, spans = [], [], [], []
    units = [speed.burst()]
    for op in workloads.cli_ops(seed, round_index):
        result = cli_cold.run_command(op["command"], child_env(), ROOT, traced)
        units.append(speed.burst())
        passed, reason = cli_cold.check_output(op["command"], result["returncode"],
                                               result["stdout"], references[op["command"]])
        rows.append({"id": op["id"], "kind": op["command"], "latency_s": result["latency_s"],
                     "cpu_s": result["cpu_s"],
                     "time_s": speed.scale(result["cpu_s"], (units[-2] + units[-1]) / 2),
                     "outcome": f"exit {result['returncode']}", "passed": passed,
                     "reason": reason, "sha256": result["stdout_sha256"]})
        if traced:
            line = [ln for ln in result["stderr"].splitlines()
                    if ln.startswith("PERFBENCH_TRACE ")]
            if not line:
                raise BenchError(f"no trace from {op['command']!r}")
            payload = json.loads(line[-1][len("PERFBENCH_TRACE "):])
            layers.append(payload["layers"])
            imports.append(payload["import_s"])
            spans += [[*span[:5], op["id"], span[6]] for span in payload["spans"]]
    return rows, layers, imports, spans


# -- untraced runs -------------------------------------------------------------------

def run_untraced(workload: str, seed: int, seconds: float, references: dict):
    """Returns (rows, setup samples, peak rss kb, per-round op lists)."""
    setups = [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    if workload == "cli_cold":
        rows, spent, index = [], 0.0, 0
        while index < workloads.MIN_ROUNDS[workload] or spent < seconds:
            round_rows, *_ = run_cli_round(seed, index, references["cli"], traced=False)
            rows += round_rows
            spent += sum(row["time_s"] for row in round_rows)
            index += 1
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        # one long-lived process, caches empty at start
        report = spawn_worker(workload, seed, min_rounds=workloads.MIN_ROUNDS[workload],
                              seconds=seconds)
        rows, rss = report["ops"], report["peak_rss_kb"]
    rounds = sorted({int(row["id"].split(".")[0][1:]) for row in rows})
    return rows, setups, rss, [workloads.generate(workload, seed, r) for r in rounds]


def run_traced(workload: str, seed: int, references: dict):
    """Round 0 untraced, then round 0 traced.
    Returns (rows, per-layer metrics, spans, raw layer totals)."""
    if workload == "cli_cold":
        rows_u, *_ = run_cli_round(seed, 0, references["cli"], traced=False)
        rows_t, layers, imports, spans = run_cli_round(seed, 0, references["cli"], traced=True)
        overhead = (sum(r["latency_s"] for r in rows_t) - sum(r["latency_s"] for r in rows_u))
        total = tracing.combine(layers)
        import_s = statistics.median(imports)
    else:
        report_u = spawn_worker(workload, seed)
        report_t = spawn_worker(workload, seed, trace=True)
        rows_u, rows_t = report_u["ops"], report_t["ops"]
        overhead = report_t["wall_s"] - report_u["wall_s"]
        total = report_t["layers"]
        import_s = report_t["import_s"]
        spans = report_t["spans"]
    metrics = tracing.layer_metrics(total, import_s, overhead)
    return rows_u + rows_t, metrics, spans, total


def write_spans(workload: str, seed: int, spans: list) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as handle:
        handle.write(json.dumps({"fields": ["name", "layer", "start", "end", "parent",
                                            "op", "exception"]}) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    return path


def fingerprints(rows: list[dict]) -> dict:
    per_op = {row["id"]: row["sha256"] for row in rows if row["sha256"]}
    combined = hashlib.sha256("".join(f"{k}={per_op[k]};" for k in sorted(per_op)).encode())
    return {"combined": combined.hexdigest(), "per_op": per_op}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
        references = cli_cold.load_references()
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment()}
        if args.trace:
            rows, metrics, spans, raw = run_traced(args.workload, args.seed, references)
            report["spans_file"] = str(write_spans(args.workload, args.seed, spans)
                                       .relative_to(ROOT))
            report["layer_totals"] = raw
            op_lists = [workloads.generate(args.workload, args.seed, 0)]
        else:
            rows, setups, rss, op_lists = run_untraced(args.workload, args.seed,
                                                       args.seconds, references)
            timed = per_command(rows) if args.workload == "cli_cold" else rows
            metrics = end_to_end(timed, args.workload, setups, rss)
            report.update({"samples": len(timed),
                           "tail_percentile": (workloads.TAIL_PERCENTILE[args.workload]
                                               or "slowest op of each round"),
                           "setup_samples_s": setups, "round_ops_per_s": round_rates(timed),
                           "wall_clock": wall_clock(timed, args.workload)})
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tally = counts(rows)
    all_ops = [op for ops in op_lists for op in ops]
    report.update({
        "rounds": len(op_lists),
        "op_mix": workloads.op_mix(all_ops),
        "q_values": [workloads.q_values(ops) for ops in op_lists],
        "q_reuse_share": workloads.q_reuse_share(op_lists),
        "fail_ratio": tally["fail_ratio"],
        "failures": [row for row in rows if not row["passed"]],
        "fingerprints": fingerprints(rows),
        "ops": rows,
        "metrics": metrics,
    })
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
