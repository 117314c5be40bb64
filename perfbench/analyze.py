"""Turns one qf_perfbench run record into the benchmark's metrics.

The driver (driver/*.cc) records every statement it issues: its kind and
request class, client-observed start and end, status and output check,
and, in traced cycles, the statement output (EXPLAIN ANALYZE trees, OPEN
and CHECKPOINT lines) plus the engine's span events. On the served path
the record also carries the server's per-statement spans. This module
derives the end-to-end metrics (untraced statements) and the per-layer
metrics (traced cycles) from that record.
"""

import math
import re
import statistics
from collections import defaultdict

TIMED = ("query", "write", "open")

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "query_geomean_ms": "ms",
    "query_tail_ms": "ms",
    "write_geomean_ms": "ms",
    "write_tail_ms": "ms",
    "open_geomean_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

RELATIONAL_OPS = ("scan", "join", "semi_join", "anti_join", "select",
                  "project", "group_by", "union")

PER_LAYER = {
    "relational.join_self_ms": "ms",
    "relational.select_self_ms": "ms",
    "relational.project_self_ms": "ms",
    "relational.group_self_ms": "ms",
    "relational.scan_self_ms": "ms",
    "relational.antijoin_self_ms": "ms",
    "relational.semijoin_self_ms": "ms",
    "relational.rows_materialized": "count",
    "relational.tuples_probed": "count",
    "relational.spill_activations": "count",
    "relational.spill_partitions": "count",
    "relational.spill_bytes": "bytes",
    "flocks.filter_self_ms": "ms",
    "flocks.candidates_per_answer": "ratio",
    "flocks.delta_ratio": "ratio",
    "flocks.incremental_self_ms": "ms",
    "optimizer.plan_ms": "ms",
    "optimizer.dyn_decision_ms": "ms",
    "plan.step_self_ms": "ms",
    "mining.maximal_ms": "ms",
    "mining.state_bytes": "bytes",
    "apriori.gap_x": "ratio",
    "common.pool_speedup": "ratio",
    "common.governor_peak_mb": "MB",
    "storage.wal_bytes_per_user_byte": "ratio",
    "storage.fsyncs_per_write": "count",
    "storage.wal_sync_ms": "ms",
    "storage.checkpoint_ms": "ms",
    "storage.snapshot_bytes": "bytes",
    "storage.replay_ms": "ms",
    "storage.pool_misses_per_open": "count",
    "storage.pool_evictions_per_open": "count",
    "storage.pool_hit_ratio": "ratio",
    "shell.stmt_ms.query": "ms",
    "shell.stmt_ms.write": "ms",
    "shell.stmt_ms.open": "ms",
    "shell.overhead_ms": "ms",
    "network.wait_ms": "ms",
    "network.ping_us": "us",
    "network.shed_frac": "ratio",
    "network.reconnects": "count",
    "workload.gen_s": "s",
    "trace.query_overhead_pct": "%",
    "trace.write_overhead_pct": "%",
    "trace.open_overhead_pct": "%",
    "host.kernel_ms": "ms",
}


def latency_ms(stmt):
    return (stmt["t1"] - stmt["t0"]) / 1e6


def median(values, default=0.0):
    return statistics.median(values) if values else default


def class_geomean(stmts):
    """Typical latency of a request class: the geometric mean of its
    statements' latencies.

    Not the median: the host alternates between two speeds about 1.5x
    apart for seconds at a time, so a run's latencies are bimodal and
    their median jumps between the modes with the share of time spent in
    each, while the geometric mean moves in proportion. In a round-robin
    mix every kind also moves it in proportion to its share.
    """
    if not stmts:
        return 0.0
    logs = [math.log(max(latency_ms(s), 1e-6)) for s in stmts]
    return math.exp(sum(logs) / len(logs))


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it (the maximum when there are ten or fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (children clipped to the parent, overlaps
    among parallel children counted once). Spans are dicts with id, parent,
    t0, t1."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        intervals = sorted((max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                           for c in children[s["id"]])
        covered = 0
        start = end = None
        for a, b in intervals:
            if b <= a:
                continue
            if end is None or a > end:
                if end is not None:
                    covered += end - start
                start, end = a, b
            else:
                end = max(end, b)
        if end is not None:
            covered += end - start
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def server_spans(lines):
    """(session, request) -> (begin, end) from the server's stmt spans."""
    begins = {}
    spans = {}
    for ev in lines:
        m = re.match(r"session=(\d+) req=(\d+)", ev.get("detail", ""))
        if ev.get("op") != "stmt" or not m:
            continue
        key = (int(m.group(1)), int(m.group(2)))
        if ev["ev"] == "B":
            begins[key] = ev["t_ns"]
        elif key in begins:
            spans[key] = (begins.pop(key), ev["t_ns"])
    return spans


def statement_spans(stmt, server):
    """Span tree of one traced statement: the client-observed request, the
    server's statement span under it (served path), and the engine spans
    under that, nested per thread by begin/end order."""
    spans = [{"id": 0, "parent": None, "name": "request", "detail": "",
              "t0": stmt["t0"], "t1": stmt["t1"]}]
    top = 0
    srv = server.get((stmt["session"], stmt["req"]))
    if srv is not None:
        spans.append({"id": 1, "parent": 0, "name": "stmt", "detail": "",
                      "t0": srv[0], "t1": srv[1]})
        top = 1
    stacks = defaultdict(list)
    for ev in stmt["engine"]:
        stack = stacks[ev["tid"]]
        if ev["ev"] == "B":
            span = {"id": len(spans), "name": ev["op"], "detail": ev["detail"],
                    "parent": stack[-1]["id"] if stack else top,
                    "t0": ev["t_ns"], "t1": None}
            spans.append(span)
            stack.append(span)
        elif stack:
            stack.pop()["t1"] = ev["t_ns"]
    return [s for s in spans if s["t1"] is not None], top


NODE = re.compile(r"^( *)(\S+)(.*)$")
COUNTER = re.compile(r"(\w+)=([\d.]+)")


def parse_explain(text):
    """Numbers from EXPLAIN ANALYZE output: answers, governor peak, the
    metrics tree nodes (op, out, probed), and the storage counters."""
    info = {"answers": 0, "peak": 0, "nodes": [], "storage": None,
            "mode": ""}
    lines = text.splitlines()
    if lines:
        m = re.match(r"^\S+: (\d+) assignments in [\d.]+ ms \((.*)\)$",
                     lines[0])
        if m:
            info["answers"] = int(m.group(1))
            info["mode"] = m.group(2).split(", threads")[0]
    section = None
    for line in lines[1:]:
        if line.startswith("governor: peak "):
            info["peak"] = int(line.split()[2])
        elif line in ("metrics:", "storage:"):
            section = line[:-1]
            if section == "storage":
                info["storage"] = {}
        elif line.startswith("result:"):
            section = None
        elif section is not None:
            m = NODE.match(line)
            if not m:
                continue
            counters = dict(COUNTER.findall(line))
            if section == "metrics":
                info["nodes"].append((m.group(2), int(counters.get("out", 0)),
                                      int(counters.get("probed", 0))))
            else:
                info["storage"][m.group(2)] = counters
    return info


def storage_counters(storage):
    """Flat cumulative counters from a parsed storage subtree."""
    def get(node, key):
        return float(storage.get(node, {}).get(key, 0))
    return {
        "fsyncs": get("wal", "fsyncs"),
        "wal_bytes": get("wal", "mem"),
        "wal_sync_ms": get("wal", "t"),
        "pool_hits": get("buffer_pool", "hits"),
        "pool_misses": get("buffer_pool", "misses"),
        "pool_evictions": get("buffer_pool", "evictions"),
        "spill_activations": get("spill", "activations"),
        "spill_partitions": get("spill", "partitions"),
        "spill_bytes": get("spill", "mem"),
    }


def diff(a, b):
    return {k: a[k] - b.get(k, 0.0) for k in a}


def timed(record, traced):
    return [s for s in record["stmts"]
            if s["cls"] in TIMED and s["traced"] == traced]


def counts(record):
    stmts = [s for s in record["stmts"] if s["cls"] in TIMED]
    failed = sum(1 for s in stmts if not (s["ok"] and s["correct"]))
    wrong = sum(1 for s in stmts if s["ok"] and not s["correct"])
    correct = wrong == 0 and not record["checks_failed"]
    return len(stmts), failed, correct


def end_to_end(record):
    """(metrics, detail) for a run with tracing off."""
    stmts = timed(record, traced=False)
    good = [s for s in stmts if s["ok"] and s["correct"]]
    by_class = {c: [s for s in good if s["cls"] == c] for c in TIMED}
    attempted = len(stmts)
    failed = attempted - len(good)
    q_tail = tail([latency_ms(s) for s in by_class["query"]])
    w_tail = tail([latency_ms(s) for s in by_class["write"]])
    values = {
        "setup_s": median(record["setup_s"]),
        "throughput_ops_s": len(good) / max(record["window_s"], 1e-9),
        "query_geomean_ms": class_geomean(by_class["query"]),
        "query_tail_ms": q_tail[0],
        "write_geomean_ms": class_geomean(by_class["write"]),
        "write_tail_ms": w_tail[0],
        "open_geomean_ms": class_geomean(by_class["open"]),
        "ok_frac": (attempted - failed) / max(attempted, 1),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    kinds = defaultdict(list)
    for s in good:
        kinds[s["kind"]].append(latency_ms(s))
    detail = {
        "fail_frac": failed / max(attempted, 1),
        "query_tail": {"percentile": q_tail[1], "samples": q_tail[2]},
        "write_tail": {"percentile": w_tail[1], "samples": w_tail[2]},
        "open_samples": len(by_class["open"]),
        "kinds": {k: {"n": len(v), "p50_ms": statistics.median(v)}
                  for k, v in sorted(kinds.items())},
    }
    return values, detail


def per_layer(record):
    """(metrics, detail) for a traced run. Self times and counts are per
    traced query statement; tracing overhead compares the traced cycles
    with the untraced cycles of the same run."""
    stmts = record["stmts"]
    server = server_spans(record["server_trace"])
    traced = [s for s in timed(record, traced=True) if s["ok"]]
    queries = [s for s in traced if s["cls"] == "query"]
    nq = max(len(queries), 1)
    self_ns = defaultdict(float)
    incremental_ns = 0.0
    overhead_ms, wait_ms = [], []
    stmt_ms = defaultdict(list)
    for s in traced:
        spans, top = statement_spans(s, server)
        own = self_times(spans)
        stmt_ms[s["cls"]].append((spans[top]["t1"] - spans[top]["t0"]) / 1e6)
        if top == 1:
            wait_ms.append(latency_ms(s) - stmt_ms[s["cls"]][-1])
        if s["cls"] != "query":
            continue
        engine = [sp for sp in spans if sp["id"] > top]
        for sp in engine:
            self_ns[sp["name"]] += own[sp["id"]]
            if sp["name"] == "disjunct" and sp["detail"].startswith("delta"):
                incremental_ns += own[sp["id"]]
        overhead_ms.append(own[top] / 1e6)

    rows = probed = groups = answers = 0
    peak = 0
    delta_runs = 0
    explains = []
    for s in queries:
        info = parse_explain(s["output"])
        if info["mode"].startswith("INCREMENTAL:delta"):
            delta_runs += 1
        if not info["nodes"]:
            continue
        explains.append(s)
        answers += info["answers"]
        peak = max(peak, info["peak"])
        for op, out, p in info["nodes"]:
            probed += p
            if op in RELATIONAL_OPS:
                rows += out
            if op == "group_by":
                groups += out

    sums = storage_intervals(stmts)
    untraced = defaultdict(list)
    for s in timed(record, traced=False):
        if s["ok"]:
            untraced[s["kind"]].append(latency_ms(s))
    pairs_plan = median(untraced["run pairs PLAN"])
    apriori_ms = record["values"].get("apriori_pairs_ms", 0)
    threads2 = median(untraced["run pairs PLAN THREADS 2"])
    attempted = [s for s in stmts if s["cls"] in TIMED]
    shed = sum(1 for s in attempted if "OVERLOADED" in s["error"])

    def of_kind(kind, key):
        return [s for s in stmts if s["kind"] == kind and key(s)]

    def number(pattern, outputs):
        found = [float(m.group(1)) for o in outputs
                 for m in [re.search(pattern, o)] if m]
        return statistics.mean(found) if found else 0.0

    def overhead(cls):
        base = class_geomean([s for s in timed(record, False)
                              if s["cls"] == cls and s["ok"]])
        with_trace = class_geomean([s for s in traced if s["cls"] == cls])
        return 100.0 * (with_trace - base) / base if base > 0 else 0.0

    values = {
        "relational.join_self_ms": self_ns["join"] / 1e6 / nq,
        "relational.select_self_ms": self_ns["select"] / 1e6 / nq,
        "relational.project_self_ms": self_ns["project"] / 1e6 / nq,
        "relational.group_self_ms": self_ns["group_by"] / 1e6 / nq,
        "relational.scan_self_ms": self_ns["scan"] / 1e6 / nq,
        "relational.antijoin_self_ms": self_ns["anti_join"] / 1e6 / nq,
        "relational.semijoin_self_ms": self_ns["semi_join"] / 1e6 / nq,
        "relational.rows_materialized": rows / max(len(explains), 1),
        "relational.tuples_probed": probed / max(len(explains), 1),
        "relational.spill_activations": sums["spill_activations"] / nq,
        "relational.spill_partitions": sums["spill_partitions"] / nq,
        "relational.spill_bytes": sums["spill_bytes"] / nq,
        "flocks.filter_self_ms": self_ns["filter"] / 1e6 / nq,
        "flocks.candidates_per_answer": groups / max(answers, 1),
        "flocks.delta_ratio": delta_runs / nq,
        "flocks.incremental_self_ms": incremental_ns / 1e6 / nq,
        "optimizer.plan_ms": median([latency_ms(s) for s in stmts
                                     if s["cls"] == "plan"]),
        "optimizer.dyn_decision_ms": self_ns["dyn_filter"] / 1e6 / nq,
        "plan.step_self_ms": self_ns["step"] / 1e6 / nq,
        "mining.maximal_ms": median(untraced["maximal"]),
        "mining.state_bytes": number(r"~(\d+) bytes",
                                     [s["output"] for s in
                                      of_kind("state", lambda s: s["ok"])]),
        "apriori.gap_x": pairs_plan / apriori_ms if apriori_ms > 0 else 0.0,
        "common.pool_speedup": pairs_plan / threads2 if threads2 > 0 else 0.0,
        "common.governor_peak_mb": peak / 1048576.0,
        "storage.wal_bytes_per_user_byte":
            sums["wal_bytes"] / sums["user_bytes"] if sums["user_bytes"] else 0.0,
        "storage.fsyncs_per_write": sums["fsyncs"] / max(sums["appends"], 1),
        "storage.wal_sync_ms": sums["wal_sync_ms"] / max(sums["appends"], 1),
        "storage.checkpoint_ms": median(untraced["checkpoint"]),
        "storage.snapshot_bytes": median(
            [s["dev_bytes"] for s in of_kind("checkpoint", lambda s: s["ok"])]),
        "storage.replay_ms": number(
            r"recovery: .*\(([\d.]+) ms\)",
            [s["output"] for s in of_kind("open", lambda s: s["traced"])]),
        "storage.pool_misses_per_open":
            sums["pool_misses"] / max(sums["opens"], 1),
        "storage.pool_evictions_per_open":
            sums["pool_evictions"] / max(sums["opens"], 1),
        "storage.pool_hit_ratio":
            sums["pool_hits"] / max(sums["pool_hits"] + sums["pool_misses"], 1),
        "shell.stmt_ms.query": median(stmt_ms["query"]),
        "shell.stmt_ms.write": median(stmt_ms["write"]),
        "shell.stmt_ms.open": median(stmt_ms["open"]),
        "shell.overhead_ms": median(overhead_ms),
        "network.wait_ms": median(wait_ms),
        "network.ping_us": median([latency_ms(s) * 1e3 for s in
                                   of_kind("ping", lambda s: s["ok"])]),
        "network.shed_frac": shed / max(len(attempted), 1),
        "network.reconnects": record["values"].get("reconnects", 0.0),
        "workload.gen_s": median(record["gen_s"]),
        "trace.query_overhead_pct": overhead("query"),
        "trace.write_overhead_pct": overhead("write"),
        "trace.open_overhead_pct": overhead("open"),
        "host.kernel_ms": statistics.mean(record["kernel_ms"]),
    }
    detail = {"traced_queries": len(queries), "explain_trees": len(explains),
              "wal_intervals": sums["appends"], "pool_opens": sums["opens"]}
    return values, detail


def storage_intervals(stmts):
    """Attributes storage-counter movement to the statements that caused it.

    EXPLAIN ANALYZE reports cumulative counters per engine session (the
    catalog's since its OPEN, the buffer pool's and spill's since the
    session began). Between two consecutive reports of one session:
    spill counters belong to the later query when no other query ran in
    between; WAL counters belong to the append when it was the only
    write and no OPEN intervened; pool counters belong to the OPENs in
    between (a session's first report counts from zero)."""
    sums = defaultdict(float)
    by_session = defaultdict(list)
    for s in stmts:
        if s["cls"] in TIMED:
            by_session[(s["client"], s["session"])].append(s)
    for seq in by_session.values():
        last = None
        between = []
        for s in seq:
            info = (parse_explain(s["output"])
                    if s["traced"] and s["cls"] == "query" and s["ok"] else None)
            if info is None or info["storage"] is None:
                between.append(s)
                continue
            cur = storage_counters(info["storage"])
            base = last if last is not None else {k: 0.0 for k in cur}
            delta = diff(cur, base)
            queries = [b for b in between if b["cls"] == "query"]
            writes = [b for b in between if b["cls"] == "write"]
            opens = [b for b in between if b["cls"] == "open"]
            if not queries:
                for k in ("spill_activations", "spill_partitions",
                          "spill_bytes"):
                    sums[k] += delta[k]
            if (last is not None and not opens and len(writes) == 1
                    and writes[0]["kind"] == "append"):
                sums["appends"] += 1
                sums["user_bytes"] += writes[0]["user_bytes"]
                for k in ("fsyncs", "wal_bytes", "wal_sync_ms"):
                    sums[k] += delta[k]
            if opens:
                sums["opens"] += len(opens)
                for k in ("pool_hits", "pool_misses", "pool_evictions"):
                    sums[k] += delta[k]
            last = cur
            between = []
    return sums


def result(record, trace):
    """The final result line and a detail dict for one run."""
    attempted, failed, correct = counts(record)
    if trace:
        values, detail = per_layer(record)
        units = PER_LAYER
    else:
        values, detail = end_to_end(record)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    detail["checks_failed"] = record["checks_failed"]
    detail["errors"] = sorted({s["error"] for s in record["stmts"]
                               if s["error"]})[:5]
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, detail
