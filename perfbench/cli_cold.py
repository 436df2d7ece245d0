"""Cold CLI commands: how each one is run, and how its output is checked
against the references stored in references.json."""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


def argv_for(command: str) -> list[str]:
    return command.split() + ["--reproducible"]


def run_command(command: str, env: dict, cwd: Path, traced: bool) -> dict:
    """One cold subprocess; latency covers interpreter start to exit."""
    if traced:
        program = [sys.executable, str(BENCH_DIR / "cli_runner.py")]
    else:
        program = [sys.executable, "-m", "qfj"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(program + argv_for(command), capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=170)
    latency = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "latency_s": latency, "cpu_s": cpu,
            "stdout_sha256": hashlib.sha256(proc.stdout.encode()).hexdigest()}


def parse_output(command: str, stdout: str) -> list:
    """JSON records as dicts, or CSV rows as lists of strings."""
    if "--format csv" in command:
        return [row for row in csv.reader(io.StringIO(stdout))]
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _float_close(got, ref) -> bool:
    if ref is None or got is None:
        return got is None and ref is None
    got, ref = float(got), float(ref)
    return math.isfinite(got) and abs(got - ref) <= FLOAT_REL_TOL * abs(ref) + FLOAT_ABS_TOL


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_output(command: str, returncode: int, stdout: str,
                 reference: dict) -> tuple[bool, str]:
    """Exit code, every suite_pass true, every exact_value equal to the
    reference, every float within tolerance of the reference."""
    if returncode != reference["exit_code"]:
        return False, f"exit code {returncode}, expected {reference['exit_code']}"
    try:
        got = parse_output(command, stdout)
    except (json.JSONDecodeError, csv.Error) as exc:
        return False, f"unparseable output: {exc}"
    want = reference["output"]
    if len(got) != len(want):
        return False, f"{len(got)} output rows, expected {len(want)}"
    for index, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, list):
            if len(g) != len(w):
                return False, f"row {index}: {len(g)} cells, expected {len(w)}"
            for cell_g, cell_w in zip(g, w):
                if _is_number(cell_w) and _is_number(cell_g):
                    if not _float_close(cell_g, cell_w):
                        return False, f"row {index}: {cell_g} != {cell_w}"
                elif cell_g != cell_w:
                    return False, f"row {index}: {cell_g!r} != {cell_w!r}"
            continue
        for field in ("quantity", "inputs", "exact_value"):
            if g.get(field) != w.get(field):
                return False, f"record {index}: {field} differs from reference"
        if not _float_close(g.get("float_value"), w.get("float_value")):
            return False, f"record {index}: float_value {g.get('float_value')} " \
                          f"!= {w.get('float_value')}"
        if g.get("suite_pass") is False or (w.get("suite_pass") is not None
                                            and g.get("suite_pass") is not True):
            return False, f"record {index}: suite_pass is {g.get('suite_pass')}"
    return True, "matches reference"


@functools.lru_cache(maxsize=None)
def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def reference_entry(command: str, returncode: int, stdout: str) -> dict:
    """The stored form: exit code, the fields that are checked, and the
    stdout fingerprint at the time the reference was made."""
    parsed = parse_output(command, stdout)
    if parsed and isinstance(parsed[0], dict):
        parsed = [{field: record.get(field) for field in
                   ("quantity", "inputs", "exact_value", "float_value", "suite_pass")}
                  for record in parsed]
    return {"exit_code": returncode, "output": parsed,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
