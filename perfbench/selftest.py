"""Self-test of the benchmark at reduced size (tiny inputs, one repetition).

Checks, for every workload of ``BENCHMARK.json``:

* an untraced run prints every end-to-end metric with its unit, a sample
  count, and a last line with ``correct``, ``attempted``, ``failed`` and
  exactly the ``end_to_end`` metrics;
* a traced run prints exactly the ``per_layer`` metrics with their units;

and then that the hash gate trips (exit 1, ``"correct": false``) on a
perturbed stored reference, and that the benchmark exits non-zero without a
result in a directory holding only ``BENCHMARK.json`` and its own files.

Usage (from the repository root; takes about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-work" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "1", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_report(done, workload: str, expected: list[dict]) -> dict:
    """The run's result line, after checking its metric names and units."""
    if done.returncode != 0:
        raise AssertionError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise AssertionError(f"{workload}: {result}")
    names = [metric["name"] for metric in expected]
    if sorted(result["metrics"]) != sorted(names):
        raise AssertionError(f"{workload}: metrics {sorted(result['metrics'])} != {sorted(names)}")
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        if printed["unit"] != metric["unit"] or not isinstance(printed["value"], (int, float)):
            raise AssertionError(f"{workload}: {metric['name']} printed as {printed}")
        pattern = rf"^metric {re.escape(metric['name'])} \S+ {re.escape(metric['unit'])} \(n=\d+ samples"
        if not any(re.match(pattern, line) for line in lines):
            raise AssertionError(f"{workload}: no report line for {metric['name']}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            check_report(bench("--workload", workload, "--seed", "5", "--trace", trace), workload, expected)
            print(f"ok   {workload} --trace {trace}: every metric printed with its unit")

    # The hash gate: a stored reference one digit off must fail the run.
    workload = workloads[-1]
    done = bench("--workload", workload, "--seed", "5")
    observed = re.search(r"^sample 0 input=(\d+) .* hash=([0-9a-f]{64})", done.stdout, re.M)
    key, digest = observed.group(1), observed.group(2)
    perturbed = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    references = SCRATCH / "references.json"
    references.write_text(json.dumps({"tiny": {workload: {key: perturbed}}}), encoding="utf8")
    done = bench("--workload", workload, "--seed", "5", "--references", str(references))
    if done.returncode == 0 or json.loads(done.stdout.strip().splitlines()[-1])["correct"]:
        raise AssertionError(f"hash gate did not trip on a perturbed reference:\n{done.stdout}")
    if "stored reference" not in done.stderr:
        raise AssertionError(f"hash gate tripped for another reason:\n{done.stderr}")
    print(f"ok   {workload}: a perturbed reference fails the run (exit {done.returncode})")

    # Without the program's source the benchmark must fail without a result.
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*spec["command"], "--workload", workloads[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    if done.returncode == 0 or '"metrics"' in done.stdout:
        raise AssertionError(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok   a directory without the program exits {done.returncode} without a result")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()
    except OSError:
        pass  # a benchmark run is using it
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
