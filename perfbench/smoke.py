"""The benchmark's own tests, run by `python3 perfbench/run.py --smoke`.

Unit checks of the analysis (self time on a hand-built span list, the
tail rule, the class geometric mean, EXPLAIN ANALYZE parsing), then
every workload at tiny sizes with
tracing off and on: answers must check out, no statement may fail, and
the metric names and units must be exactly those of BENCHMARK.json.
"""

import json
from pathlib import Path

import analyze

ROOT = Path(__file__).resolve().parent.parent


def check(condition, message, failures):
    if not condition:
        failures.append(message)
        print("FAIL " + message)


def unit_tests(failures):
    # request [0,100] has children A [10,40] and B [30,60] (overlapping,
    # e.g. two worker threads) and C [90,120] (clipped to the parent);
    # A has child D [15,20].
    spans = [
        {"id": 0, "parent": None, "t0": 0, "t1": 100},
        {"id": 1, "parent": 0, "t0": 10, "t1": 40},
        {"id": 2, "parent": 0, "t0": 30, "t1": 60},
        {"id": 3, "parent": 0, "t0": 90, "t1": 120},
        {"id": 4, "parent": 1, "t0": 15, "t1": 20},
    ]
    own = analyze.self_times(spans)
    check(own == {0: 40, 1: 25, 2: 30, 3: 30, 4: 5},
          "self times: got {}".format(own), failures)

    value, pct, n = analyze.tail([float(i) for i in range(1, 21)])
    check((value, pct, n) == (10.0, 50.0, 20),
          "tail of 1..20: got {}".format((value, pct, n)), failures)
    check(analyze.tail([3.0, 1.0])[0] == 3.0, "tail of two samples", failures)

    stmts = [{"kind": k, "t0": 0, "t1": int(ms * 1e6)}
             for k, ms in (("a", 10), ("a", 10), ("b", 40), ("b", 40))]
    check(abs(analyze.class_geomean(stmts) - 20.0) < 1e-9,
          "class geometric mean of two kinds", failures)

    text = ("pairs: 5 assignments in 3.0 ms (INCREMENTAL:delta(+20 rows), "
            "threads 1)\ngovernor: peak 2048 bytes accounted\nmetrics:\n"
            "flock                                    in=0 out=5 t=1.000ms\n"
            "  join baskets                           in=4x9 out=7 probed=11 "
            "t=0.500ms\nstorage:\nstorage sa0      in=0 out=0 t=0.000ms\n"
            "  wal fsyncs=3                           in=0 out=2 mem=640 "
            "t=0.250ms\n")
    info = analyze.parse_explain(text)
    check(info["answers"] == 5 and info["peak"] == 2048
          and info["mode"].startswith("INCREMENTAL:delta")
          and ("join", 7, 11) in info["nodes"],
          "parse_explain tree: got {}".format(info), failures)
    counters = analyze.storage_counters(info["storage"])
    check(counters["fsyncs"] == 3 and counters["wal_bytes"] == 640
          and counters["wal_sync_ms"] == 0.25,
          "parse_explain storage: got {}".format(counters), failures)


def workload_tests(run_driver, failures):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(("mine_mix", "served_append",
                                   "spill_reopen")),
          "BENCHMARK.json workloads: {}".format(names), failures)
    for workload in names:
        for trace in (0, 1):
            record = run_driver(workload, 7, 2, trace, True, timeout=120)
            line, detail = analyze.result(record, trace == 1)
            tag = "{} trace={}".format(workload, trace)
            check(line["correct"], tag + " not correct: {}".format(detail),
                  failures)
            check(line["failed"] == 0 and line["attempted"] > 0,
                  tag + " attempted {} failed {}".format(line["attempted"],
                                                         line["failed"]),
                  failures)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == want[trace],
                  tag + " metric names/units differ from BENCHMARK.json",
                  failures)
            print("ok   {}: {} statements".format(tag, line["attempted"]))


def main(run_driver):
    failures = []
    unit_tests(failures)
    workload_tests(run_driver, failures)
    print("smoke: {} failure(s)".format(len(failures)))
    return 1 if failures else 0
