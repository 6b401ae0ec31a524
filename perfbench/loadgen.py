"""A closed-loop load generator: many one-op-at-a-time sessions
multiplexed over a few TCP connections.

Each session walks its pre-generated trace like one of the paper's
synchronous clients: it sends the next request only after the previous
one was answered (a query may send one *burst* of reads together and
wait for all of them), resubmits a transaction whose operation the
server aborted, and moves on after the commit is acknowledged.  The
number of sessions is the multiprogramming level.  Request ids carry
``session << 8 | slot`` so responses are matched without decoding
anything else.

The module imports nothing from the program under test: it packs
``binary-1`` frames and JSON lines itself, so a change to the program's
codecs or clients cannot move the instrument.
"""

from __future__ import annotations

import json
import selectors
import socket
import struct
import time
from array import array

__all__ = ["LoadGenerator", "verify_final_values"]

# binary-1 frames (docs/protocol.md): u32le size | u8 type | payload.
_PK_BEGIN = struct.Struct("<IBBBddiiQ")
_PK_READ = struct.Struct("<IBQQQ")
_PK_WRITE = struct.Struct("<IBQQdQ")
_PK_TXN = struct.Struct("<IBQQ")
_ST_QQ = struct.Struct("<QQ")
_ST_VALUE = struct.Struct("<ddBQ")
_ST_WROTE = struct.Struct("<dBQ")
_ST_Q = struct.Struct("<Q")
_KINDS = {"query": 0, "update": 1}

# Response shapes the session state machine consumes.
OK, TXN, VALUE, ABORTED, ERROR = range(5)


class BinaryWire:
    """Client side of ``binary-1``."""

    name = "binary-1"

    @staticmethod
    def begin(kind: str, limit: float, limits_json: str | None, rid: int) -> bytes:
        if limits_json is None:
            return _PK_BEGIN.pack(35, 0x01, _KINDS[kind], 0, limit, 0.0, 0, 0, rid)
        payload = b'{"op":"begin","kind":"%s","limit":%r,"group_limits":%s,"id":%d}' % (
            kind.encode(), limit, limits_json.encode(), rid
        )
        return (len(payload) + 1).to_bytes(4, "little") + b"\x0f" + payload

    @staticmethod
    def read(txn: int, oid: int, rid: int) -> bytes:
        return _PK_READ.pack(25, 0x02, txn, oid, rid)

    @staticmethod
    def write(txn: int, oid: int, value: float, rid: int) -> bytes:
        return _PK_WRITE.pack(33, 0x03, txn, oid, value, rid)

    @staticmethod
    def commit(txn: int, rid: int) -> bytes:
        return _PK_TXN.pack(17, 0x04, txn, rid)

    @staticmethod
    def parse(buffer: bytes, out: list) -> int:
        """Append ``(rid, shape, a, b)`` per whole frame; return bytes used."""
        pos = 0
        end = len(buffer)
        while end - pos >= 4:
            size = int.from_bytes(buffer[pos : pos + 4], "little")
            if end - pos - 4 < size:
                break
            ftype = buffer[pos + 4]
            body = pos + 5
            pos += 4 + size
            if ftype == 0x83:
                value, incons, _case, rid = _ST_VALUE.unpack_from(buffer, body)
                out.append((rid, VALUE, value, incons))
            elif ftype == 0x84:
                incons, _case, rid = _ST_WROTE.unpack_from(buffer, body)
                out.append((rid, OK, 0.0, incons))
            elif ftype == 0x82:
                txn, rid = _ST_QQ.unpack_from(buffer, body)
                out.append((rid, TXN, txn, 0.0))
            elif ftype == 0x81:
                (rid,) = _ST_Q.unpack_from(buffer, body)
                out.append((rid, OK, 0.0, 0.0))
            elif ftype == 0x0F:
                out.append(_json_shape(json.loads(buffer[body:pos])))
            else:
                raise ValueError(f"unknown binary-1 response frame 0x{ftype:02x}")
        return pos


class JsonWire:
    """Client side of the JSON line codec, with a byte-level fast path
    for the read responses that dominate the traffic."""

    name = "json"

    @staticmethod
    def begin(kind: str, limit: float, limits_json: str | None, rid: int) -> bytes:
        groups = b',"group_limits":%s' % limits_json.encode() if limits_json else b""
        return b'{"op":"begin","kind":"%s","limit":%r%s,"id":%d}\n' % (
            kind.encode(), limit, groups, rid
        )

    @staticmethod
    def read(txn: int, oid: int, rid: int) -> bytes:
        return b'{"op":"read","txn":%d,"object":%d,"id":%d}\n' % (txn, oid, rid)

    @staticmethod
    def write(txn: int, oid: int, value: float, rid: int) -> bytes:
        return b'{"op":"write","txn":%d,"object":%d,"value":%r,"id":%d}\n' % (
            txn, oid, value, rid
        )

    @staticmethod
    def commit(txn: int, rid: int) -> bytes:
        return b'{"op":"commit","txn":%d,"id":%d}\n' % (txn, rid)

    @staticmethod
    def parse(buffer: bytes, out: list) -> int:
        end = buffer.rfind(b"\n") + 1
        if not end:
            return 0
        for line in buffer[:end].split(b"\n")[:-1]:
            if line.startswith(b'{"ok":true,"value":'):
                cut1 = line.find(b',"inconsistency":', 19)
                cut2 = line.find(b',"esr_case":', cut1)
                cut3 = line.rfind(b',"id":')
                out.append(
                    (
                        int(line[cut3 + 6 : -1]),
                        VALUE,
                        float(line[19:cut1]),
                        float(line[cut1 + 17 : cut2]),
                    )
                )
            else:
                out.append(_json_shape(json.loads(line)))
        return end


def _json_shape(message: dict) -> tuple:
    rid = message.get("id", -1)
    if message.get("ok"):
        if "txn" in message:
            return (rid, TXN, message["txn"], 0.0)
        if "value" in message:
            return (rid, VALUE, message["value"], message["inconsistency"])
        return (rid, OK, 0.0, message.get("inconsistency", 0.0))
    if message.get("error") == "aborted":
        return (rid, ABORTED, message.get("reason"), 0.0)
    return (rid, ERROR, f"{message.get('error')}: {message.get('detail')}", 0.0)


WIRES = {"binary-1": BinaryWire, "json": JsonWire}


class Connection:
    """One non-blocking client socket with buffered, coalesced writes."""

    def __init__(self, host: str, port: int, wire_name: str):
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.wire = WIRES[wire_name]
        if wire_name != "json":
            self.sock.sendall(b'{"op":"hello","codecs":["%s"]}\n' % wire_name.encode())
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = self.sock.recv(4096)
                if not chunk:
                    raise ConnectionError("server closed during hello")
                reply += chunk
            if json.loads(reply).get("codec") != wire_name:
                raise ConnectionError(f"server declined codec {wire_name}: {reply!r}")
        self.sock.setblocking(False)
        self.rbuf = b""
        self.out: list[bytes] = []
        self.pending = b""
        self.bytes_sent = 0
        self.bytes_received = 0
        self.requests_sent = 0

    def send(self, frame: bytes) -> None:
        self.out.append(frame)
        self.requests_sent += 1

    def flush(self) -> bool:
        """Try to write everything buffered; True when nothing is left."""
        if self.out:
            self.pending += b"".join(self.out)
            self.out.clear()
        if self.pending:
            try:
                sent = self.sock.send(self.pending)
            except BlockingIOError:
                sent = 0
            self.bytes_sent += sent
            self.pending = self.pending[sent:]
        return not self.pending

    def receive(self, responses: list) -> bool:
        """Read what is available and parse whole responses; False on EOF."""
        try:
            data = self.sock.recv(1 << 18)
        except BlockingIOError:
            return True
        if not data:
            return False
        self.bytes_received += len(data)
        buffer = self.rbuf + data if self.rbuf else data
        used = self.wire.parse(buffer, responses)
        self.rbuf = buffer[used:]
        return True

    def close(self) -> None:
        self.sock.close()


class Session:
    """One closed-loop client walking its trace."""

    __slots__ = (
        "sid", "conn", "trace", "pos", "plan", "txn", "group", "waiting",
        "values", "incons", "aborted", "errors", "started", "idle",
    )

    def __init__(self, sid: int, conn: Connection, trace: list[tuple]):
        self.sid = sid
        self.conn = conn
        self.trace = trace
        self.pos = 0
        self.plan: tuple | None = None
        self.txn = 0
        self.group = 0
        self.waiting = 0
        self.values: dict[int, float] = {}
        self.incons = 0.0
        self.aborted = False
        self.errors: list[str] = []
        self.started = 0.0
        self.idle = True


class LoadGenerator:
    """Drive sessions over connections; collect what a run measures."""

    def __init__(self, host: str, port: int, wire_name: str, traces: list[list[tuple]],
                 connections: int = 2):
        self.conns = [Connection(host, port, wire_name) for _ in range(connections)]
        self.sessions = [
            Session(sid, self.conns[sid % connections], trace)
            for sid, trace in enumerate(traces)
        ]
        self.selector = selectors.DefaultSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.recording = False
        self.stopping = False
        # Whole-run tallies (warm-up, window and drain).
        self.attempted = 0
        self.commits_total = 0
        self.never_committed = 0
        self.protocol_errors: list[str] = []
        self.responses = 0
        self.deltas: dict[int, float] = {}
        self.til_violations: list[str] = []
        # Window tallies.
        self.window_commits = 0
        self.window_restarts = 0
        self.window_query = array("d")
        self.window_update = array("d")
        self.commit_times = array("d")
        #: Called once with no arguments when ``commits_total`` first
        #: reaches ``commit_mark`` (memory sampling at equal work).
        self.commit_mark: int | None = None
        self.on_commit_mark = None

    # -- session state machine ---------------------------------------------------

    def _start_next(self, session: Session, now: float) -> None:
        if self.stopping:
            session.idle = True
            session.plan = None
            return
        trace = session.trace
        session.plan = trace[session.pos % len(trace)]
        session.pos += 1
        session.idle = False
        session.started = now
        self.attempted += 1
        self._begin(session)

    def _begin(self, session: Session) -> None:
        plan = session.plan
        session.values = {}
        session.incons = 0.0
        session.aborted = False
        session.group = -1
        session.waiting = 1
        session.conn.send(
            session.conn.wire.begin(plan[0], plan[1], plan[2], session.sid << 8)
        )

    def _send_group(self, session: Session) -> None:
        """Send the next request(s) of the current attempt, or commit."""
        plan = session.plan
        wire = session.conn.wire
        conn = session.conn
        base = session.sid << 8
        txn = session.txn
        session.group += 1
        step = session.group
        if plan[0] == "query":
            groups = plan[3]
            if step < len(groups):
                group = groups[step]
                session.waiting = len(group)
                for slot, oid in enumerate(group):
                    conn.send(wire.read(txn, oid, base | slot))
                return
        else:
            pairs = plan[3]
            if step < 2 * len(pairs):
                oid, delta = pairs[step >> 1]
                session.waiting = 1
                if step & 1:
                    conn.send(wire.write(txn, oid, session.values[oid] + delta, base))
                else:
                    conn.send(wire.read(txn, oid, base))
                return
            pads = plan[4]
            index = step - 2 * len(pairs)
            if index < len(pads):
                session.waiting = 1
                conn.send(wire.read(txn, pads[index], base))
                return
        session.waiting = 1
        session.group = 1 << 30  # commit sent
        conn.send(wire.commit(txn, base))

    def _on_response(self, rid: int, shape: int, a, b: float, now: float) -> None:
        if rid < 0:
            raise ConnectionError(f"server answered without a request id: {a}")
        session = self.sessions[rid >> 8]
        if shape == TXN and session.group == -1:
            session.txn = a
            session.waiting = 0
            self._send_group(session)
            return
        session.waiting -= 1
        if shape == VALUE:
            plan = session.plan
            if plan[0] == "query":
                session.incons += b
            else:
                step = session.group
                pairs = plan[3]
                if step < 2 * len(pairs):
                    session.values[pairs[step >> 1][0]] = a
        elif shape == ABORTED:
            session.aborted = True
        elif shape == ERROR:
            # Sibling reads of an aborted burst find the transaction gone;
            # anything else is a real protocol failure.
            if not session.aborted:
                session.errors.append(str(a))
        if session.waiting:
            return
        if session.aborted:
            session.errors.clear()
            if self.recording:
                self.window_restarts += 1
            self._begin(session)
            return
        if session.errors:
            self.protocol_errors.extend(session.errors)
            session.errors.clear()
            self.never_committed += 1
            self._start_next(session, now)
            return
        if session.group == 1 << 30:
            self._committed(session, now)
            self._start_next(session, now)
            return
        self._send_group(session)

    def _committed(self, session: Session, now: float) -> None:
        plan = session.plan
        self.commits_total += 1
        if plan[0] == "update":
            deltas = self.deltas
            for oid, delta in plan[3]:
                deltas[oid] = deltas.get(oid, 0.0) + delta
        elif session.incons > plan[1] * (1 + 1e-12):
            self.til_violations.append(
                f"query charged {session.incons:g} over its TIL {plan[1]:g}"
            )
        if self.recording:
            self.window_commits += 1
            self.commit_times.append(now)
            latency = now - session.started
            if plan[0] == "query":
                self.window_query.append(latency)
            else:
                self.window_update.append(latency)
        if self.commit_mark is not None and self.commits_total >= self.commit_mark:
            self.commit_mark = None
            self.on_commit_mark()

    # -- the event loop ------------------------------------------------------------

    def run(self, until: float) -> None:
        """Serve responses until ``time.perf_counter() >= until``; idle
        sessions start their next transaction first."""
        now = time.perf_counter()
        for session in self.sessions:
            if session.idle:
                self._start_next(session, now)
        self._loop(lambda t: t >= until)

    def drain(self, timeout: float) -> int:
        """Stop starting transactions and let in-flight ones finish.

        Returns how many sessions were still busy at the timeout; their
        transactions count as never committed.
        """
        self.stopping = True
        deadline = time.perf_counter() + timeout
        self._loop(
            lambda t: t >= deadline or all(s.idle for s in self.sessions)
        )
        busy = sum(1 for s in self.sessions if not s.idle)
        self.never_committed += busy
        return busy

    def _loop(self, done) -> None:
        select = self.selector.select
        conns = self.conns
        responses: list = []
        on_response = self._on_response
        clock = time.perf_counter
        for conn in conns:
            self._flush(conn)
        while True:
            now = clock()
            if done(now):
                return
            for key, _mask in select(0.02):
                conn = key.data
                if not conn.receive(responses):
                    raise ConnectionError("server closed a benchmark connection")
                if responses:
                    self.responses += len(responses)
                    now = clock()
                    for rid, shape, a, b in responses:
                        on_response(rid, shape, a, b, now)
                    responses.clear()
            for conn in conns:
                if conn.out or conn.pending:
                    self._flush(conn)

    def _flush(self, conn: Connection) -> None:
        drained = conn.flush()
        events = selectors.EVENT_READ | (0 if drained else selectors.EVENT_WRITE)
        self.selector.modify(conn.sock, events, conn)

    def traffic(self) -> tuple[int, int, int, int]:
        """``(bytes sent, bytes received, requests, responses)`` so far."""
        return (
            sum(c.bytes_sent for c in self.conns),
            sum(c.bytes_received for c in self.conns),
            sum(c.requests_sent for c in self.conns),
            self.responses,
        )

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.close()


def verify_final_values(host: str, port: int, object_ids: list[int]) -> dict[int, float]:
    """Read every object in one zero-epsilon query (TIL 0) and return
    ``{object_id: value}``; raises if the server refuses any read."""
    values: dict[int, float] = {}
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.sendall(b'{"op":"begin","kind":"query","limit":0.0,"id":0}\n')
        reader = sock.makefile("rb")
        reply = json.loads(reader.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"zero-epsilon verify begin refused: {reply}")
        txn = reply["txn"]
        sock.sendall(
            b"".join(JsonWire.read(txn, oid, index) for index, oid in enumerate(object_ids))
        )
        for _ in object_ids:
            reply = json.loads(reader.readline())
            if not reply.get("ok"):
                raise RuntimeError(f"zero-epsilon verify read refused: {reply}")
            values[object_ids[reply["id"]]] = reply["value"]
        sock.sendall(JsonWire.commit(txn, len(object_ids)))
        reply = json.loads(reader.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"zero-epsilon verify commit refused: {reply}")
    return values
