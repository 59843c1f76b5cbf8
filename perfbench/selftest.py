#!/usr/bin/env python3
"""Self-test of the benchmark, with tiny budgets (--smoke).

    python3 perfbench/selftest.py [workload ...]

For every workload of BENCHMARK.json (or those named), runs one untraced
and one traced smoke run through perfbench/run.py and checks that:
  * the last stdout line is {"correct", "attempted", "failed", "metrics"}
    with every operation correct;
  * the untraced run prints exactly the end_to_end metrics, the traced run
    exactly the per_layer metrics, each with its BENCHMARK.json unit and a
    finite value;
  * in the span dump of the traced run every span lies inside its parent
    and each operation's layer self times add up to its wall time.
Then it checks that a deliberately wrong expected verdict (--expect-wrong)
is counted as a failed operation. Exits 0 when everything holds.
"""

import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(result, expected, what):
    got = result["metrics"]
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise AssertionError(f"{what}: missing {missing}, unexpected {extra}")
    for name, spec in expected.items():
        value = got[name]
        if value["unit"] != spec["unit"]:
            raise AssertionError(f"{what}: {name} unit {value['unit']}, "
                                 f"expected {spec['unit']}")
        if not isinstance(value["value"], (int, float)) or \
                not math.isfinite(value["value"]):
            raise AssertionError(f"{what}: {name} value {value['value']}")


def check_spans(workload):
    path = ROOT / ".bench_build" / "runs" / f"spans-{workload}-{SEED}.jsonl"
    lines = path.read_text().splitlines()
    json.loads(lines[0])  # metadata
    spans = [json.loads(line) for line in lines[1:]]
    by_id = {s["id"]: s for s in spans}
    cover, tol = {}, 1e-6
    for s in spans:
        if s["end"] < s["start"]:
            raise AssertionError(f"{workload}: span {s} ends before it starts")
        if s["parent"]:
            p = by_id[s["parent"]]
            if s["start"] < p["start"] - tol or s["end"] > p["end"] + tol:
                raise AssertionError(f"{workload}: span {s} outside {p}")
            cover[p["id"]] = cover.get(p["id"], 0.0) + s["end"] - s["start"]
    self_by_op, wall_by_op = {}, {}
    for s in spans:
        d = s["end"] - s["start"]
        self_by_op[s["op"]] = self_by_op.get(s["op"], 0.0) + d - cover.get(s["id"], 0.0)
        if not s["parent"]:
            wall_by_op[s["op"]] = d
    for op, wall in wall_by_op.items():
        if abs(self_by_op[op] - wall) > 1e-6 * max(1.0, wall):
            raise AssertionError(f"{workload}: op {op} self times "
                                 f"{self_by_op[op]} != wall {wall}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    failures = 0
    for w in workloads:
        try:
            for trace, expected in ((0, e2e), (1, layers)):
                result = run(w, trace)
                if not result["correct"] or result["failed"] or \
                        result["attempted"] < 1:
                    raise AssertionError(f"trace {trace}: {result['attempted']}"
                                         f" attempted, {result['failed']} failed")
                check_metrics(result, expected, f"trace {trace}")
            check_spans(w)
            print(f"ok    {w}")
        except (AssertionError, OSError, ValueError, KeyError) as e:
            failures += 1
            print(f"FAIL  {w}: {e}")
    try:
        result = run("e2_o1", 0, "--expect-wrong")
        if result["correct"] or result["failed"] != result["attempted"] or \
                result["attempted"] < 1:
            raise AssertionError(f"wrong expectation not counted: {result}")
        print("ok    wrong expected verdict counted as failed")
    except (AssertionError, OSError, ValueError) as e:
        failures += 1
        print(f"FAIL  wrong-verdict check: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
