"""The solve daemon as a child process, and the open-loop load generator.

One process drives the load: a single thread multiplexes every
connection with ``select`` (whose timeout has microsecond resolution,
where epoll's has milliseconds), sends each request at its scheduled
time whatever is still in flight, and timestamps the answers.  The
daemon is started from the checkout with its socket in a private
directory there, and is always stopped with SIGTERM, then SIGKILL if
it has not exited after :data:`TERM_GRACE_S`.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: A request unanswered this long after its scheduled send is lost.
REQUEST_TIMEOUT_S = 10.0
#: The daemon's own drain bound is 30 s; past this it counts as hung.
TERM_GRACE_S = 35.0
#: The daemon's default ``--max-inflight-per-conn``: it refuses frames
#: past this many in flight on one connection as ``overloaded``.
MAX_INFLIGHT_PER_CONN = 8


class Connection:
    """One newline-delimited JSON connection to the daemon."""

    def __init__(self, path: str, timeout_s: float = 30.0) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self._buffer = b""
        self._ids = 0

    def send(self, message: dict) -> None:
        self.sock.sendall(json.dumps(message).encode("utf-8") + b"\n")

    def receive(self) -> list[dict]:
        """Every complete message available after one read."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("daemon closed the connection")
        self._buffer += data
        *lines, self._buffer = self._buffer.split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]

    def call(self, op: str, params: dict | None = None) -> dict:
        """Send one request and wait for its answer (closed loop)."""
        self._ids += 1
        request_id = f"call-{self._ids}"
        self.send({"op": op, "id": request_id, "params": params or {}})
        while True:
            for message in self.receive():
                if message.get("id") == request_id:
                    return message

    def close(self) -> None:
        self.sock.close()


class Daemon:
    """``netsampling serve`` run from the checkout at ``root``.

    ``workdir`` holds the socket, the daemon's stderr and, when
    traced, its span file; the caller removes it.  Paths handed to the
    daemon are relative to ``root``, which keeps the socket path short
    wherever the checkout lives.
    """

    def __init__(self, root: Path, workdir: Path, env: dict,
                 traced: bool) -> None:
        self.root = root
        self.workdir = workdir
        self.socket_path = os.path.relpath(workdir / "daemon.sock", root)
        self.stderr_path = workdir / "daemon.err"
        self.spans_path = workdir / "daemon.spans.jsonl" if traced else None
        self.env = env
        self.proc: subprocess.Popen | None = None

    def command(self) -> list[str]:
        serve = ["serve", "--socket", self.socket_path]
        if self.spans_path is None:
            return [sys.executable, "-m", "repro", *serve]
        return [
            sys.executable, "-X", "importtime", str(HERE / "driver.py"),
            "--spans", str(self.spans_path), "--", *serve,
        ]

    def start(self, timeout_s: float = 60.0) -> Connection:
        """Spawn, then return a connection once ``health`` reports ok.

        The daemon leads a session of its own, so that :meth:`stop` can
        find every process it started.
        """
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                self.command(), cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=stderr, start_new_session=True,
            )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}: "
                    + self.stderr_path.read_text(errors="replace")[-2000:]
                )
            try:
                conn = Connection(str(self.root / self.socket_path))
            except OSError:
                time.sleep(0.01)
                continue
            health = conn.call("health")
            if health.get("ok") and health["result"]["status"] == "ok":
                return conn
            conn.close()
            time.sleep(0.01)
        raise RuntimeError(f"daemon not healthy after {timeout_s} s")

    def stop(self) -> bool:
        """Stop the daemon and everything it started; True if it hung.

        SIGTERM lets the daemon drain.  One that has not exited after
        :data:`TERM_GRACE_S` is killed with its session: pool workers
        stuck with it first, then multiprocessing's resource tracker,
        which is spared a moment so that it can unlink the shared-memory
        segments the dead processes leaked.
        """
        if self.proc is None:
            return False
        hung = False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(TERM_GRACE_S)
            except subprocess.TimeoutExpired:
                hung = True
        session = self.proc.pid
        trackers = [pid for pid in _session_members(session)
                    if b"resource_tracker" in _cmdline(pid)]
        _kill_and_wait(set(_session_members(session)) - set(trackers))
        self.proc.wait()
        _kill_and_wait(trackers, grace_s=5.0)
        try:
            os.unlink(self.root / self.socket_path)
        except FileNotFoundError:
            pass
        return hung

    def peak_rss_mb(self) -> float:
        """The daemon's own peak resident set (``VmHWM``) so far.

        Pool workers are forked copies: their resident sets share the
        daemon's pages, so adding them would count those pages twice.
        0 when the daemon has already exited.
        """
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0


def _session_members(session: int) -> list[int]:
    """Live processes of a session (zombies excluded)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid,
        # pgrp, session, ...
        fields = stat[stat.rindex(b")") + 2:].split()
        if fields[0] != b"Z" and int(fields[3]) == session:
            members.append(int(entry))
    return members


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:stat.rindex(b")") + 3] != b"Z"


def _kill_and_wait(pids, grace_s: float = 0.0, timeout_s: float = 10.0) -> None:
    """Give ``pids`` ``grace_s`` to exit, SIGKILL the rest, wait for all."""
    deadline = time.monotonic() + grace_s
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)


def open_loop(conns: list[Connection], schedule: list[dict],
              start_s: float) -> list[dict]:
    """Send ``schedule`` on time over ``conns``; collect the answers.

    Each schedule entry has ``t`` (seconds after ``start_s``, on the
    ``time.monotonic`` clock) and the solve ``params``.  A request goes
    out on the connection with the fewest requests in flight; when
    every connection has :data:`MAX_INFLIGHT_PER_CONN` in flight, due
    requests wait in the client (``held``) rather than be refused by
    the daemon's pipelining cap, and that wait counts in their latency
    as it would for a real client.  Returns one record per entry with
    ``due``, ``sent``, ``recv``, ``held``, ``lost_connection`` and the
    ``response`` (``None`` when unanswered within
    :data:`REQUEST_TIMEOUT_S` of ``due`` or when its connection broke).
    """
    selector = selectors.SelectSelector()
    for index, conn in enumerate(conns):
        selector.register(conn.sock, selectors.EVENT_READ, index)
    records = [
        {**entry, "due": start_s + entry["t"], "sent": None, "recv": None,
         "held": False, "lost_connection": False, "response": None}
        for entry in schedule
    ]
    inflight = [0] * len(conns)
    pending: dict[str, tuple[int, dict]] = {}
    dead: set[int] = set()
    following = 0
    try:
        while following < len(records) or pending:
            now = time.monotonic()
            while following < len(records) and records[following]["due"] <= now:
                live = [i for i in range(len(conns)) if i not in dead]
                if not live:
                    break
                index = min(live, key=inflight.__getitem__)
                record = records[following]
                if inflight[index] >= MAX_INFLIGHT_PER_CONN:
                    for waiting in records[following:]:
                        if waiting["due"] > now:
                            break
                        waiting["held"] = True
                    break
                request_id = str(following)
                following += 1
                try:
                    conns[index].send({
                        "op": "solve", "id": request_id,
                        "params": record["params"],
                    })
                except OSError:
                    dead.add(index)
                    record["lost_connection"] = True
                    continue
                record["sent"] = time.monotonic()
                inflight[index] += 1
                pending[request_id] = (index, record)
            if len(dead) == len(conns):
                break
            now = time.monotonic()
            for request_id in [
                key for key, (_, record) in pending.items()
                if now - record["due"] > REQUEST_TIMEOUT_S
            ]:
                index, _ = pending.pop(request_id)
                inflight[index] -= 1
            wait = 0.05
            if following < len(records) and not records[following]["held"]:
                wait = min(wait, records[following]["due"] - now)
            for key, _ in selector.select(max(wait, 0.0)):
                try:
                    messages = conns[key.data].receive()
                except (OSError, ValueError):
                    selector.unregister(key.fileobj)
                    dead.add(key.data)
                    for request_id in [
                        k for k, (i, _) in pending.items() if i == key.data
                    ]:
                        pending.pop(request_id)[1]["lost_connection"] = True
                    continue
                received = time.monotonic()
                for message in messages:
                    entry = pending.pop(str(message.get("id")), None)
                    if entry is not None:
                        index, record = entry
                        inflight[index] -= 1
                        record["recv"] = received
                        record["response"] = message
    finally:
        selector.close()
    return records
