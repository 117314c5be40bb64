#!/usr/bin/env python3
"""Load-test qfserverd: N concurrent clients, throughput and latency.

A pure-Python implementation of the wire protocol (network/protocol.h) —
the same frame layout and LevelDB-style masked CRC32C as the catalog WAL
(see tools/corrupt_wal.py) — drives a real qfserverd over TCP:

    [u32 payload length][u32 masked CRC32C of payload][payload bytes]
    payload = [u8 frame type][u64 request id][body]   (little-endian)

Each client runs the scripted flock workload end to end (GEN, DEFINE,
FLOCK, RUN, SHOW) in its own session and records per-statement latency.
With --qfshell the same scripts are replayed through the serial shell
binary and the transcripts compared (timings normalized), so the load
test doubles as a result-divergence check: concurrency must not change a
single output byte.

    tools/load_test.py --serverd build/tools/qfserverd \
        --qfshell build/tools/qfshell --clients 64 --out load_test.json

Without --serverd an already-running server is used (--host/--port).
The report is google-benchmark-shaped JSON ({"context", "suites"}), so
load-test runs can be diffed across commits with the usual
google-benchmark tooling. Exit status: 0 on success, 1 on any
protocol error, failed statement, or transcript divergence.

--chaos runs the live fault drill instead (DESIGN.md §16): every client
talks to the server through an in-process TCP proxy that kills the
connection after a byte budget, over and over. The client (protocol v2)
reconnects, RESUMEs its session with the token from WELCOME, and
replays unanswered statements under their original request ids. The
drill fails unless every proxy-killed client's transcript is
byte-identical (timings normalized) to a fault-free oracle run of the
same session workload — which, because the workload's mutations report
row counts, also proves no mutation was applied twice or dropped.

    tools/load_test.py --serverd build/tools/qfserverd --chaos \
        --clients 8 --out CHAOS_PR10.json
"""

import argparse
import datetime
import json
import os
import re
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

PROTOCOL_VERSION = 2
MAGIC = 0x4B4C4651  # "QFLK" little-endian
HEADER = struct.Struct("<II")

T_HELLO, T_WELCOME, T_STMT, T_RESULT, T_ERROR = 1, 2, 3, 4, 5
T_PING, T_PONG, T_STATS, T_BYE = 6, 7, 8, 9
T_RESUME, T_RESUMED, T_HEARTBEAT = 10, 11, 12

CRC_MASK_DELTA = 0xA282EAD8

_TABLE = []
for _i in range(256):
    _c = _i
    for _ in range(8):
        _c = (_c >> 1) ^ 0x82F63B78 if _c & 1 else _c >> 1
    _TABLE.append(_c)


def crc32c(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for b in data:
        crc = _TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def mask(crc: int) -> int:
    return (((crc >> 15) | (crc << 17)) + CRC_MASK_DELTA) & 0xFFFFFFFF


def encode_frame(ftype: int, request_id: int, body: bytes) -> bytes:
    payload = struct.pack("<BQ", ftype, request_id) + body
    return HEADER.pack(len(payload), mask(crc32c(payload))) + payload


class ConnectionLost(Exception):
    """The connection is unusable: reset, EOF, or a poisoned stream."""


class Client:
    """One session: blocking connect/handshake/execute, like qf::Client.

    Speaks protocol v2: the WELCOME carries a resume token, and with
    retries > 0 a lost connection is redialed (capped-exponential
    backoff), the session re-attached via RESUME, and the in-flight
    statement replayed under its original request id — the server
    answers already-executed ids from its replay cache, so a mutation
    never runs twice no matter where the connection died.
    """

    def __init__(self, host: str, port: int, retries: int = 0):
        self.host, self.port, self.retries = host, port, retries
        self.next_id = 1
        self.reconnects = 0
        self._connect()

    def _connect(self):
        self.sock = socket.create_connection((self.host, self.port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        hello = struct.pack("<II", MAGIC, PROTOCOL_VERSION)
        self.sock.sendall(encode_frame(T_HELLO, 0, hello))
        ftype, _, body = self.read_frame()
        if ftype == T_ERROR:
            raise RuntimeError(f"handshake rejected: {body[1:].decode()}")
        if ftype != T_WELCOME:
            raise RuntimeError(f"unexpected handshake frame type {ftype}")
        (self.session_id,) = struct.unpack_from("<Q", body, 4)
        self.token = (struct.unpack_from("<Q", body, 12)[0]
                      if len(body) >= 20 else 0)

    def read_frame(self):
        """One frame, heartbeats skipped. Raises ConnectionLost when the
        stream dies (reset/EOF/bad checksum)."""
        while True:
            if len(self._buffer) >= HEADER.size:
                length, stored = HEADER.unpack_from(self._buffer)
                if len(self._buffer) >= HEADER.size + length:
                    payload = self._buffer[HEADER.size:HEADER.size + length]
                    self._buffer = self._buffer[HEADER.size + length:]
                    if mask(crc32c(payload)) != stored:
                        raise ConnectionLost("frame checksum mismatch")
                    ftype, request_id = struct.unpack_from("<BQ", payload)
                    if ftype == T_HEARTBEAT:
                        continue
                    return ftype, request_id, payload[9:]
            try:
                chunk = self.sock.recv(65536)
            except OSError as exc:
                raise ConnectionLost(str(exc)) from exc
            if not chunk:
                raise ConnectionLost("server closed the connection")
            self._buffer += chunk

    def _resume(self, request_id, statement):
        """Redial + RESUME + replay, with capped-exponential backoff."""
        if self.token == 0 or self.retries <= 0:
            raise ConnectionLost("connection lost and resumption disabled")
        delay = 0.005
        for attempt in range(self.retries):
            try:
                self.sock.close()
                old_sid, old_token = self.session_id, self.token
                self._connect()  # fresh session, discarded on RESUME
                resume = struct.pack("<QQ", old_sid, old_token)
                self.sock.sendall(encode_frame(T_RESUME, 0, resume))
                ftype, _, body = self.read_frame()
                if ftype == T_ERROR:
                    raise RuntimeError(
                        f"RESUME rejected: {body[1:].decode()}")
                if ftype != T_RESUMED:
                    raise ConnectionLost(f"expected RESUMED, got {ftype}")
                self.session_id, self.token = old_sid, old_token
                self.sock.sendall(
                    encode_frame(T_STMT, request_id, statement.encode()))
                self.reconnects += 1
                return
            except (ConnectionLost, OSError):
                if attempt + 1 == self.retries:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 0.2)

    def execute(self, statement: str) -> str:
        request_id = self.next_id
        self.next_id += 1
        try:
            self.sock.sendall(
                encode_frame(T_STMT, request_id, statement.encode()))
        except OSError:
            self._resume(request_id, statement)
        while True:
            try:
                ftype, reply_id, body = self.read_frame()
            except ConnectionLost:
                self._resume(request_id, statement)
                continue
            if ftype == T_ERROR and reply_id == 0:
                # Connection-level report (poisoned stream); the server
                # is about to hang up. Not this statement's reply.
                self._resume(request_id, statement)
                continue
            if reply_id != request_id:
                continue  # stale duplicate from before a reconnect
            if ftype == T_RESULT:
                return body.decode()
            if ftype == T_ERROR:
                raise RuntimeError(
                    f"statement failed (code {body[0]}): "
                    f"{body[1:].decode()}")
            raise RuntimeError(f"unexpected frame type {ftype}")

    def close(self):
        try:
            self.sock.sendall(encode_frame(T_BYE, 0, b""))
        except OSError:
            pass
        self.sock.close()


class ChaosProxy:
    """A TCP forwarder that murders connections on a byte budget.

    Each accepted connection is forwarded to the upstream server until
    `budget` total bytes (both directions) have moved, then both sides
    are shut down mid-whatever-was-happening. The budget grows by `grow`
    per kill so a resuming client always makes forward progress — the
    same schedule FaultSocketOps uses in tests/network_chaos_test.cc.
    """

    def __init__(self, upstream_host, upstream_port, budget, grow):
        self.upstream = (upstream_host, upstream_port)
        self.budget, self.grow = budget, grow
        self.kills = 0
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.port = self.listener.getsockname()[1]
        self._stop = False
        self._thread = threading.Thread(target=self._accept_loop,
                                        daemon=True)
        self._thread.start()

    def _accept_loop(self):
        while not self._stop:
            try:
                downstream, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._pump_pair,
                             args=(downstream,), daemon=True).start()

    def _pump_pair(self, downstream):
        try:
            upstream = socket.create_connection(self.upstream)
        except OSError:
            downstream.close()
            return
        budget = self.budget
        self.budget += self.grow  # the next connection lives longer
        moved = [0]
        lock = threading.Lock()

        def pump(src, dst):
            try:
                while True:
                    chunk = src.recv(4096)
                    if not chunk:
                        break
                    with lock:
                        moved[0] += len(chunk)
                        overdrawn = moved[0] >= budget
                    dst.sendall(chunk)
                    if overdrawn:
                        self.kills += 1
                        break
            except OSError:
                pass
            for sock in (downstream, upstream):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

        a = threading.Thread(target=pump, args=(downstream, upstream),
                             daemon=True)
        b = threading.Thread(target=pump, args=(upstream, downstream),
                             daemon=True)
        a.start()
        b.start()
        a.join()
        b.join()
        downstream.close()
        upstream.close()

    def close(self):
        self._stop = True
        self.listener.close()


def workload(i: int, delta_path=None):
    """Mirror of the scripted workload in tests/server_stress_test.cc,
    plus an append-heavy incremental phase when delta_path is set:
    SET INCREMENTAL ON, then interleaved LOAD ... APPEND / RUN so every
    session exercises the build -> delta(+N) -> delta(+0 rows, the second
    append is all duplicates) decision chain under concurrency."""
    n = 60 + (i % 5) * 10
    stmts = [
        f"GEN BASKETS b n_baskets={n} n_items=20 avg_size=5 seed={i + 1}",
        "DEFINE bought(B,I) :- b(B,I)",
        "FLOCK pairs QUERY answer(B) :- bought(B,$1) AND bought(B,$2) AND "
        "$1 < $2 FILTER COUNT >= 3",
        "RUN pairs DIRECT LIMIT 5",
        "RUN pairs PLAN LIMIT 5",
        "SHOW RELATIONS",
    ]
    if delta_path:
        stmts += [
            "SET INCREMENTAL ON",
            "FLOCK ipairs QUERY answer(B) :- b(B,$1) AND b(B,$2) AND "
            "$1 < $2 FILTER COUNT >= 3",
            "RUN ipairs LIMIT 5",
            f"LOAD b APPEND FROM {delta_path}",
            "RUN ipairs LIMIT 5",
            f"LOAD b APPEND FROM {delta_path}",
            "RUN ipairs LIMIT 5",
            "SHOW FLOCK STATE ipairs",
        ]
    return stmts


# Delta batch for the append phase: two fresh baskets, disjoint from any
# generated BID, shared read-only by every session (appends are COW
# session-local, so concurrent clients never see each other's rows).
DELTA_TSV = ("BID\tItem\n"
             "9001\t1\n9001\t2\n9001\t3\n"
             "9002\t1\n9002\t2\n")


TIMING_RE = re.compile(r"in [0-9]+(\.[0-9]+)? ms")
# The RUN mode tag's incremental decision depends on history ("build" on
# a first run, "rebuild(lineage)" after a GEN replaced the relation in a
# later round), so only incremental-vs-not survives normalization.
MODE_RE = re.compile(r"\(INCREMENTAL:.*\)")


def normalize(text: str) -> str:
    return MODE_RE.sub("(INCREMENTAL)", TIMING_RE.sub("in ? ms", text))


def run_client(host, port, i, rounds, delta_path, latencies_ns, outputs,
               errors):
    try:
        client = Client(host, port)
        transcript = []
        for _ in range(rounds):
            out = []
            for stmt in workload(i, delta_path):
                start = time.perf_counter_ns()
                out.append(client.execute(stmt))
                latencies_ns.append(time.perf_counter_ns() - start)
            transcript = out  # every round produces identical output
        outputs[i] = normalize("".join(transcript))
        client.close()
    except Exception as exc:  # noqa: BLE001 — reported, fails the run
        errors.append(f"client {i}: {exc}")


def serial_transcript(qfshell: str, i: int, delta_path) -> str:
    with tempfile.NamedTemporaryFile(
            "w", suffix=".qf", delete=False) as script:
        script.write(";\n".join(workload(i, delta_path)) + ";\n")
        path = script.name
    try:
        proc = subprocess.run([qfshell, path], capture_output=True,
                              text=True, timeout=120, check=True)
        return normalize(proc.stdout)
    finally:
        os.unlink(path)


ROWCOUNT_RE = re.compile(r"\b\d+ rows\b")


def run_chaos_client(host, port, i, delta_path, kill_budget, results,
                     errors):
    """One drill lane: the session workload through a killing proxy."""
    proxy = ChaosProxy(host, port, budget=kill_budget, grow=kill_budget)
    try:
        client = Client("127.0.0.1", proxy.port, retries=64)
        out = [client.execute(stmt) for stmt in workload(i, delta_path)]
        client.close()
        results[i] = {
            "transcript": normalize("".join(out)),
            "reconnects": client.reconnects,
            "kills": proxy.kills,
        }
    except Exception as exc:  # noqa: BLE001 — reported, fails the drill
        errors.append(f"chaos client {i}: {exc}")
    finally:
        proxy.close()


def chaos_drill(args, port, delta_path) -> int:
    """The --chaos mode: proxy-killed connections must be invisible.

    Per client: a fault-free oracle run straight at the server, then the
    same workload through a ChaosProxy whose byte budget guarantees
    repeated mid-conversation kills. Transcripts must match byte for
    byte (timings normalized); the row counts every mutation reports
    make a double-applied or dropped mutation a divergence.
    """
    clients = args.clients
    oracle = {}
    for i in range(clients):
        client = Client(args.host, port, retries=0)
        oracle[i] = normalize(
            "".join(client.execute(s) for s in workload(i, delta_path)))
        client.close()

    results = {}
    errors = []
    threads = [
        threading.Thread(target=run_chaos_client,
                         args=(args.host, port, i, delta_path,
                               args.kill_budget + 97 * i, results, errors))
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for message in errors:
        print(f"FAIL: {message}", file=sys.stderr)
    if errors:
        return 1

    divergences = 0
    duplicate_mutations = 0
    total_kills = sum(results[i]["kills"] for i in results)
    total_reconnects = sum(results[i]["reconnects"] for i in results)
    for i in range(clients):
        if results[i]["transcript"] != oracle[i]:
            divergences += 1
            got = ROWCOUNT_RE.findall(results[i]["transcript"])
            want = ROWCOUNT_RE.findall(oracle[i])
            if got != want:
                duplicate_mutations += 1
            print(f"FAIL: chaos client {i} diverged from its oracle "
                  f"(row counts {'differ' if got != want else 'match'})",
                  file=sys.stderr)
    print(f"chaos drill: {clients} clients, {total_kills} proxy kills, "
          f"{total_reconnects} resumes, {divergences} divergences, "
          f"{duplicate_mutations} duplicate mutations")
    if total_kills == 0:
        print("FAIL: the proxy never killed a connection — lower "
              "--kill-budget", file=sys.stderr)
        return 1

    report = {
        "context": {
            "date": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "executable": args.serverd or f"{args.host}:{port}",
            "num_cpus": os.cpu_count(),
            "load_test": vars(args),
        },
        "suites": {"chaos_drill": [{
            "name": f"LT_Chaos/clients:{clients}",
            "run_name": f"LT_Chaos/clients:{clients}",
            "run_type": "iteration",
            "repetitions": 1,
            "threads": clients,
            "iterations": total_kills,
            "real_time": 0.0,
            "cpu_time": 0.0,
            "time_unit": "ns",
            "proxy_kills": total_kills,
            "resumes": total_reconnects,
            "divergences": divergences,
            "duplicate_mutations": duplicate_mutations,
        }]},
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return 1 if divergences else 0


def percentile(sorted_values, p):
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1,
            int(round(p / 100.0 * (len(sorted_values) - 1))))
    return float(sorted_values[k])


def main() -> int:
    parser = argparse.ArgumentParser(
        description="concurrent load test for qfserverd")
    parser.add_argument("--serverd", help="qfserverd binary to spawn "
                        "(omit to use a running server)")
    parser.add_argument("--qfshell", help="qfshell binary for the serial "
                        "divergence check")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7464)
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--rounds", type=int, default=1,
                        help="workload repetitions per client")
    parser.add_argument("--executors", type=int, default=4)
    parser.add_argument("--out", default="load_test.json")
    parser.add_argument("--no-append", action="store_true",
                        help="skip the append-heavy incremental phase")
    parser.add_argument("--chaos", action="store_true",
                        help="run the fault drill: clients talk through "
                        "a connection-killing proxy and must still match "
                        "a fault-free oracle byte for byte")
    parser.add_argument("--kill-budget", type=int, default=400,
                        help="chaos proxy: bytes forwarded before the "
                        "first kill (grows per reconnect)")
    args = parser.parse_args()

    delta_path = None
    if not args.no_append:
        with tempfile.NamedTemporaryFile(
                "w", suffix=".tsv", delete=False) as delta:
            delta.write(DELTA_TSV)
            delta_path = delta.name

    server = None
    port = args.port
    if args.serverd:
        port = 7473  # fixed test port, distinct from the default
        server = subprocess.Popen(
            [args.serverd, "--port", str(port),
             "--executors", str(args.executors),
             "--max-queue", "1024", "--quota", "64",
             "--max-sessions", str(args.clients + 8)],
            stdout=subprocess.PIPE, text=True)
        line = server.stdout.readline()
        if "listening" not in line:
            print(f"server failed to start: {line!r}", file=sys.stderr)
            return 1

    try:
        if args.chaos:
            return chaos_drill(args, port, delta_path)

        latencies_ns = []  # list.append is atomic under the GIL
        outputs = {}
        errors = []
        threads = [
            threading.Thread(target=run_client,
                             args=(args.host, port, i, args.rounds,
                                   delta_path, latencies_ns, outputs,
                                   errors))
            for i in range(args.clients)
        ]
        wall_start = time.perf_counter_ns()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_ns = time.perf_counter_ns() - wall_start

        for message in errors:
            print(f"FAIL: {message}", file=sys.stderr)
        if errors:
            return 1

        divergences = 0
        if args.qfshell:
            for i in range(args.clients):
                expected = serial_transcript(args.qfshell, i, delta_path)
                if outputs[i] != expected:
                    divergences += 1
                    print(f"FAIL: client {i} diverged from serial shell",
                          file=sys.stderr)
            print(f"divergence check: {args.clients} clients, "
                  f"{divergences} divergences")
            if divergences:
                return 1

        statements = len(latencies_ns)
        lat = sorted(latencies_ns)
        throughput = statements / (wall_ns / 1e9) if wall_ns else 0.0
        summary = {
            "clients": args.clients,
            "rounds": args.rounds,
            "statements": statements,
            "wall_s": wall_ns / 1e9,
            "throughput_stmt_per_s": throughput,
            "latency_ms": {
                "p50": percentile(lat, 50) / 1e6,
                "p90": percentile(lat, 90) / 1e6,
                "p99": percentile(lat, 99) / 1e6,
                "max": (lat[-1] / 1e6) if lat else 0.0,
            },
        }
        print(json.dumps(summary, indent=1))

        # google-benchmark-shaped report, keyed on suites/<name>/<bench>.
        benchmarks = [{
            "name": f"LT_Serve/clients:{args.clients}",
            "run_name": f"LT_Serve/clients:{args.clients}",
            "run_type": "iteration",
            "repetitions": 1,
            "threads": args.clients,
            "iterations": statements,
            "real_time": wall_ns / statements if statements else 0.0,
            "cpu_time": wall_ns / statements if statements else 0.0,
            "time_unit": "ns",
            "items_per_second": throughput,
            "p50_ms": summary["latency_ms"]["p50"],
            "p90_ms": summary["latency_ms"]["p90"],
            "p99_ms": summary["latency_ms"]["p99"],
        }]
        report = {
            "context": {
                "date": datetime.datetime.now(
                    datetime.timezone.utc).isoformat(),
                "executable": args.serverd or f"{args.host}:{port}",
                "num_cpus": os.cpu_count(),
                "load_test": vars(args),
            },
            "suites": {"load_test": benchmarks},
        }
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out}")
        return 0
    finally:
        if server is not None:
            server.terminate()
            server.wait(timeout=30)
        if delta_path is not None:
            os.unlink(delta_path)


if __name__ == "__main__":
    sys.exit(main())
