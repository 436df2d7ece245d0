"""Seeded op lists for the three workloads.

Every op is plain data (a dict of JSON-safe values), so the program under
test only ever sees generated inputs, and the same (workload, seed, round)
always yields the same list. Rationals are carried as "a/b" strings.

The op mix of each round is a fixed template; the seed chooses the inputs
(q values of the exact workload, x and g points of the numeric one) and the
order. Keeping the template fixed keeps the cost of a round steady from seed
to seed, so run-to-run spread measures the program rather than the draw.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("exact", "numeric", "cli_cold")
# A run repeats rounds until --seconds of op time is spent and at least this
# many rounds are done: the median over exact rounds then rests on warm
# rounds (the first pays the cold polynomial build), and the pooled numeric
# quantiles on two draws of each op. Rounds cost far more than --seconds
# (exact about 9 s, numeric 12 s, cli_cold 33 s), so these minimums set a
# run's length: a third numeric round moved its spreads only from about
# 0.10 to 0.08, and a second cli_cold round from about 0.17 to 0.15.
MIN_ROUNDS = {"exact": 3, "numeric": 2, "cli_cold": 1}
# latency_tail_ms is taken at a fixed percentile, the highest with at least
# ten samples beyond it in the shortest run (MIN_ROUNDS rounds: 204 exact
# ops, 84 numeric ops), so every run reports the same percentile however
# many rounds it fits. None: the slowest op of each round, median over rounds.
TAIL_PERCENTILE = {"exact": 95, "numeric": 88, "cli_cold": None}

# -- exact -------------------------------------------------------------------

# (m, max_c) cells of the series ops; the largest j = max_c + 3m/2 fixes the
# degree of the q-double-factorial polynomials a cold session builds.
FJ_COEFFICIENT_CELLS = ((0, 12), (2, 18), (4, 24), (6, 30), (2, 30), (4, 36),
                        (6, 12), (0, 24))
FJ_SERIES_CELLS = ((4, 12), (6, 18))
VIA_MOMENTS_CELLS = ((2, 12), (4, 24), (6, 18))
# graph sums within the pairing limit: 2c + 3m flags, at most 16
GRAPH_CELLS = ((0, 8), (2, 5), (4, 2), (2, 3))
PAIRING_NS = (3, 5, 6, 7)
LAMBDA_ORACLE_CELLS = ((6, 6), (8, 4))
LAMBDA_CLOSED_CELLS = ((0, 0), (1, 3), (2, 2), (3, 5), (4, 1), (5, 4), (6, 6), (8, 2))
# Exact node sums cost about M^2 kernel terms on rationals whose size grows
# with the height of q; they take q from a few values of similar height.
# They have no q-dependent cache, so reusing those q across rounds is free
# of cache effects.
MOMENT_EXACT_CELLS = ((2, 32), (4, 48))
CQ_EXACT_CELLS = (("double_sum", 32), ("interchanged_sum", 64), ("interchanged_sum", 128))
NODE_QS = ("4/5", "5/6", "5/7", "6/7")
# Series ops draw q = a/b with b in a band and b/2 <= a < b (so every q has
# nearly the same height, hence nearly the same cost), never a q used
# earlier in the run: their per-q caches must start empty for a fresh q.
SERIES_BANDS = ((40, 64), (64, 128), (128, 256))


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def series_q_pool(seed: int) -> list[str]:
    """Seeded order of the series q values, band by band."""
    rng = _rng("exact-q", seed, 0)
    pool = []
    for lo, hi in SERIES_BANDS:
        band = [f"{a}/{b}" for b in range(lo, hi) for a in range((b + 1) // 2, b)
                if math.gcd(a, b) == 1]
        rng.shuffle(band)
        pool += band
    return pool


def _series_template() -> list[dict]:
    ops = [{"kind": "fj_coefficient", "m": m, "max_c": c} for m, c in FJ_COEFFICIENT_CELLS]
    ops += [{"kind": "fj_series", "order": o, "max_c": c} for o, c in FJ_SERIES_CELLS]
    ops += [{"kind": "fj_via_moments", "m": m, "max_c": c} for m, c in VIA_MOMENTS_CELLS]
    ops += [{"kind": "graph_sum", "m": m, "max_c": c} for m, c in GRAPH_CELLS]
    ops += [{"kind": "lambda_oracle", "max_c": c, "max_d": d} for c, d in LAMBDA_ORACLE_CELLS]
    ops += [{"kind": "lambda_closed_form", "c": c, "d": d} for c, d in LAMBDA_CLOSED_CELLS]
    return ops


def exact_ops(seed: int, round_index: int = 0) -> list[dict]:
    """One round of an API session. Every q-taking op is issued once with a
    fresh q and once more, later in the round, with the same q and inputs:
    half the ops reuse a q, and the repeat shows what the caches save."""
    rng = _rng("exact", seed, round_index)
    series = _series_template()
    fresh_qs = series_q_pool(seed)[round_index * len(series):(round_index + 1) * len(series)]
    fresh = [dict(op, q=q) for op, q in zip(series, fresh_qs)]
    fresh += [{"kind": "moment_exact", "k": k, "M": M, "q": rng.choice(NODE_QS)}
              for k, M in MOMENT_EXACT_CELLS]
    fresh += [{"kind": "cq_exact", "method": method, "M": M, "q": rng.choice(NODE_QS)}
              for method, M in CQ_EXACT_CELLS]
    fresh += [{"kind": "weighted_pairing_sum", "n": n} for n in PAIRING_NS]
    rng.shuffle(fresh)
    ops = list(fresh)
    # each repeat goes in at a seeded position after its first issue
    for op in fresh:
        if "q" in op:
            first = next(i for i, o in enumerate(ops) if o is op)
            ops.insert(rng.randrange(first + 1, len(ops) + 1), dict(op))
    for i, op in enumerate(ops):
        op["expect"] = "value"
        op["id"] = f"p{round_index}.{i}"
    return ops


# -- numeric -----------------------------------------------------------------

# 1 - q log-spaced from 1/2 down to 1/10000: N = 1/(1-q) = 2 * 5000^(i/8).
# The grid is fixed; the seed draws the x and g points and the order. The
# cost of an op near q = 1 grows like N, so a seeded q would move the cost
# of a round, and the c(q) references at the two points nearest q = 1 are
# stored with the benchmark.
GRID_NS = tuple(round(2 * 5000 ** (i / 8)) for i in range(9))
REFUSAL_CQ_DOUBLE = {"kind": "cq", "method": "double_sum", "q": "999/1000", "M": 2048}
# Which ops run at which grid index. Float routes run only where they return
# correct values at this commit; see README.md, "Excluded regimes".
DOUBLE_SUM_MAX_I = 6      # converging node sums: up to N ~ 1200
ALL_MOMENTS_MAX_I = 4     # moments k <= 10 up to N ~ 140; k = 10 alone up to N ~ 1200
KERNEL_MAX_I = 3          # kernel_eval, e_q, E_q up to N ~ 50
FALLBACK_MAX_I = 2        # E_q beyond the e_q radius (mp fallback) up to N ~ 17
FJ_NUMERIC_MAX_I = 2      # fj_numeric float and dps=60 up to N ~ 17
X_DENOMINATOR = 64        # x values are k/64: exact in binary, small as rationals


def converge_budget(N: int, method: str) -> int:
    """Budgets by the (1-q)^-1 rule of thumb, with margin: the interchanged
    series needs about 1.2 N terms, node sums about 25 N nodes."""
    if method == "interchanged_sum":
        return max(64, 2 * N)
    return max(64, 32 * N)


def _x(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi) * X_DENOMINATOR) / X_DENOMINATOR


def numeric_ops(seed: int, round_index: int = 0) -> list[dict]:
    rng = _rng("numeric", seed, round_index)
    ops: list[dict] = []

    def add(kind, q, M, expect="value", **fields):
        ops.append({"kind": kind, "q": q, "M": M, "expect": expect, **fields})

    for i, N in enumerate(GRID_NS):
        q = f"{N - 1}/{N}"
        inter = converge_budget(N, "interchanged_sum")
        nodes = converge_budget(N, "double_sum")
        add("cq", q, inter, method="interchanged_sum")
        if i <= DOUBLE_SUM_MAX_I:
            add("cq", q, nodes, method="double_sum")
            # one request for a table of moments, as `qfj moments` makes
            add("moments", q, nodes, ks=list(range(11)) if i <= ALL_MOMENTS_MAX_I else [10])
        if i <= KERNEL_MAX_I:
            # one request for the kernel and both q-exponentials at a few points;
            # e_q and E_q get 4x the budget, the E_q points beyond the e_q
            # radius (the mp alternating fallback) 8x
            nu = math.sqrt(N)
            add("exponentials", q, inter,
                kernel=[_x(rng, lo * nu, hi * nu) for lo, hi in
                        ((0.05, 0.3), (0.3, 0.6), (0.6, 0.95))],
                e_q=[_x(rng, 0.1 * N, 0.3 * N), _x(rng, 0.3 * N, 0.5 * N)],
                E_q=[-_x(rng, 0.1 * N, 0.5 * N), _x(rng, 0.2, 1.0)],
                fallback=[-_x(rng, 1.5 * N, 2.5 * N)] if i <= FALLBACK_MAX_I else [])
        if i <= FJ_NUMERIC_MAX_I:
            # the same coupling in float and at dps=60
            add("fj_numeric", q, nodes, g=_x(rng, 0.005, 0.05))
        # deliberately short budgets: the correct outcome is TruncationError
        if i >= 4:
            add("cq", q, N // 4, "refusal", method="interchanged_sum")
        if 3 <= i <= 5:
            add("cq", q, 4 * N, "refusal", method="double_sum")
            add("moment", q, 4 * N, "refusal", k=4)
    ops.append(dict(REFUSAL_CQ_DOUBLE, expect="refusal"))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"p{round_index}.{i}"
    return ops


# -- cli_cold ----------------------------------------------------------------

CLI_COMMANDS = (
    "verify --suite all",
    "series --order 8 --max-c 36",
    "cq --q 999/1000 --max-terms 2048",
    "graphs --m 4 --max-c 2",
    # the quick ones, each well under a second
    "moments --max-k 10",
    "cq --sweep 1/2:99/100:8 --format csv",
    "series --check numeric",
    "series --check graphs --max-c 3",
    "pairings --n 7",
)


# Commands of well under a second run QUICK_RUNS times a round, and the
# round counts each command once, at the median of its runs (run.py,
# per_command). latency_p50_ms falls on one of these; run once, its spread
# over ten seeds reached 0.245, at the bound. Together they cost about 1.4 s
# a run, against 32 s for the other four.
QUICK_COMMANDS = CLI_COMMANDS[4:]
QUICK_RUNS = 5


def cli_ops(seed: int, round_index: int = 0) -> list[dict]:
    rng = _rng("cli_cold", seed, round_index)
    commands = list(CLI_COMMANDS) + list(QUICK_COMMANDS) * (QUICK_RUNS - 1)
    rng.shuffle(commands)
    return [{"kind": "cli", "command": c, "expect": "value", "id": f"p{round_index}.{i}"}
            for i, c in enumerate(commands)]


GENERATORS = {"exact": exact_ops, "numeric": numeric_ops, "cli_cold": cli_ops}


def generate(workload: str, seed: int, round_index: int = 0) -> list[dict]:
    return GENERATORS[workload](seed, round_index)


def q_values(ops: list[dict]) -> list[str]:
    return [op["q"] for op in ops if "q" in op]


def q_reuse_share(op_lists: list[list[dict]]) -> float:
    """Share of q-taking ops whose q was already used earlier in the same
    round."""
    reused = total = 0
    for ops in op_lists:
        seen: set[Fraction] = set()
        for q in q_values(ops):
            value = Fraction(q)
            total += 1
            reused += value in seen
            seen.add(value)
    return reused / total if total else 0.0


def op_mix(ops: list[dict]) -> dict[str, int]:
    mix: dict[str, int] = {}
    for op in ops:
        key = op["kind"] + (":refusal" if op["expect"] == "refusal" else "")
        mix[key] = mix.get(key, 0) + 1
    return dict(sorted(mix.items()))
