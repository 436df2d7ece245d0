"""One long-lived workload process for the `exact` and `numeric` workloads.

Run from the checkout root with `src` on PYTHONPATH:

    python3 perfbench/worker.py --workload exact --seed 1 --min-rounds 3 --seconds 10

It imports qfj, generates its op list from the seed, runs the ops in a
closed loop with one op in flight, round after round until `--seconds` of
op CPU time at the reference speed (see speed.py), and only then checks
every result. The last stdout line is a
JSON report. `--setup-only` exits once the first round is generated.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

IMPORT_START = time.perf_counter()
import qfj.cli  # noqa: E402  (timed: the import floor every CLI command pays)
IMPORT_S = time.perf_counter() - IMPORT_START

import ops as opsmod  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_rounds(workload: str, seed: int, min_rounds: int, seconds: float,
               tracer: tracing.Tracer | None):
    """Run whole rounds until `seconds` of op CPU time at the reference speed
    have been spent and at least `min_rounds` are done, taking a
    calibration sample whenever SAMPLE_EVERY_S of op CPU has passed.
    Returns (records, wall_s, peak_rss_kb); each record carries the op's
    CPU seconds scaled to the reference speed."""
    records = []
    positions, samples = [], []
    wall = spent = since_sample = 0.0
    index = 0
    while index < min_rounds or spent < seconds:
        for op in workloads.generate(workload, seed, index):
            if not samples or since_sample >= speed.SAMPLE_EVERY_S:
                positions.append(len(records))
                samples.append(speed.sample())
                since_sample = 0.0
            if tracer is not None:
                tracer.op_id = op["id"]
                root = tracer.open(f"op:{op['kind']}", "bench")
            start = time.perf_counter()
            cpu_start = time.process_time()
            outcome = opsmod.run_op(op)
            latency = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            if tracer is not None:
                tracer.close(root)
            wall += latency
            since_sample += cpu
            spent += speed.scale(cpu, statistics.median(samples[-speed.WINDOW:]))
            records.append([op, outcome, latency, cpu])
        index += 1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    units = speed.local_units(positions, samples, len(records))
    for record, unit_s in zip(records, units):
        record.append(speed.scale(record[3], unit_s))
    return records, wall, rss_kb


def check_records(records) -> list[dict]:
    """Check every op after the timed phase; returns per-op JSON rows."""
    context: dict = {}
    for op, outcome, *_ in records:
        if outcome["outcome"] != "value" or op["expect"] != "value":
            continue
        if op["kind"] == "cq":
            context.setdefault("cq_values", {})[(op["q"], op["method"])] = \
                outcome["result"].float_value
    rows = []
    verdicts: dict[tuple, tuple[bool, str]] = {}
    for op, outcome, latency, cpu, scaled in records:
        text = (opsmod.canonical(op, outcome["result"])
                if outcome["outcome"] == "value" else None)
        # a repeated op with the same result needs checking only once
        key = (json.dumps({k: v for k, v in op.items() if k != "id"}, sort_keys=True),
               outcome["outcome"], text if text is not None else repr(outcome["result"]))
        if key not in verdicts:
            verdicts[key] = opsmod.check(op, outcome, context)
        passed, reason = verdicts[key]
        rows.append({"id": op["id"], "kind": op["kind"], "latency_s": latency, "cpu_s": cpu,
                     "time_s": scaled,
                     "outcome": outcome["outcome"], "passed": passed,
                     "reason": reason,
                     "sha256": None if text is None else opsmod.fingerprint(text)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("exact", "numeric"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # input generation is part of set-up
    workloads.generate(args.workload, args.seed, 0)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        records, wall, rss_kb = run_rounds(args.workload, args.seed, args.min_rounds,
                                           args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    layers = tracing.tracer_summary(tracer) if tracer is not None else None
    rows = check_records(records)
    print(json.dumps({"wall_s": wall, "peak_rss_kb": rss_kb, "import_s": IMPORT_S,
                      "ops": rows, "layers": layers,
                      "spans": None if tracer is None else [
                          [r[tracing.NAME], r[tracing.LAYER], r[tracing.START],
                           r[tracing.END], r[tracing.PARENT], r[tracing.OP], r[tracing.EXC]]
                          for r in tracer.spans]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
