"""The asyncio solver daemon: warm state + cache + coalescing + batching.

:class:`SolverServer` listens on a local Unix socket and answers the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`.  The
request path, in order:

1. **normalize** — params canonicalize, so equivalent spellings share
   one identity;
2. **prepare** — bind to the resident task/problem
   (:class:`~repro.serve.session.SolverSession`), producing the
   content-fingerprint cache key;
3. **cache** — a live TTL entry answers immediately
   (``cache: "hit"``);
4. **single-flight** — an identical request already solving attaches
   to its future (``cache: "coalesced"``; counter
   ``serve.request.coalesced``) — N identical concurrent requests
   perform exactly one solve;
5. **batch or solve** — batchable solves (exact gradient projection)
   park in a micro-batch window; if enough distinct requests are
   queued they fan out through the process pool via
   :func:`~repro.core.batch.solve_batch`, otherwise each runs
   warm-chained on the executor;
6. **certify + cache** — converged, non-degraded, full-fidelity
   (``tier == "exact"``) results (always carrying their optimality
   certificate) enter the cache and, when configured, the fsynced
   journal, so a restarted daemon re-warms.

Production hardening (see :mod:`repro.serve.admission`):

* **admission control** — solves admitted past the cache consult an
  :class:`~repro.serve.admission.AdmissionController`; past the high
  watermark new solves are shed with a structured ``overloaded``
  error carrying ``retry_after_ms``.  Cache hits, stale serves and
  control ops are never shed.  Connections are pipelined (one task
  per frame) with a per-connection in-flight cap, and frames are
  bounded by ``max_frame_bytes`` at the stream reader.
* **deadlines** — a ``deadline_ms`` request field becomes a monotonic
  :class:`~repro.serve.admission.Deadline` at frame decode, so queue
  wait spends the same budget as solving.  Requests that expire while
  queued are shed without solving; the remaining budget is threaded
  into the solver's cooperative wall clock, and on budget exhaustion
  the answer degrades to the certified-gap approx backend
  (``tier: "approx"``) instead of erroring.
* **graceful degradation** — an expired-but-in-grace cache entry is
  served immediately (``tier: "stale"``, with its age) while a
  background refresh re-solves; every answer is labelled with its
  degradation tier and certificate.
* **drain** — the ``drain`` op and SIGTERM close the listener, shed
  queued-unstarted work with ``draining`` errors, let in-flight
  solves complete (bounded by ``drain_timeout_s``), fsync the journal
  and exit.

Observability: the server holds a long-lived span recorder, wraps
every request in a ``serve.request`` span (pool workers stitch their
subtrees under it via the PR 7 machinery), times every answer into
the ``serve.request.latency`` histogram (p50/p95/p99) plus a
per-tier ``serve.request.latency.<tier>`` histogram, and exposes
everything — admission state included — through the ``stats`` and
``health`` ops; ``dump_trace`` writes a full manifest for waterfall
rendering.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

from ..obs.logsetup import get_logger
from ..obs.manifest import write_manifest
from ..obs.metrics import METRICS, diff_snapshots
from ..obs.spans import (
    collecting_spans,
    current_span_context,
    span,
    using_span_context,
)
from ..obs.trace import SolverTrace
from ..resilience import faults
from .admission import (
    AdmissionController,
    Deadline,
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
)
from .cache import CacheJournal, ResultCache
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    deadline_budget_from_message,
    decode_message,
    encode_message,
    normalize_params,
)
from .session import PreparedRequest, SolverSession, solution_payload

logger = get_logger(__name__)

__all__ = ["ServerConfig", "SolverServer", "run_server", "ServerThread"]


@dataclass
class ServerConfig:
    """Tunables of one daemon instance."""

    socket_path: str
    ttl_s: float = 300.0
    max_cached_results: int = 256
    max_resident_tasks: int = 8
    max_warm_chains: int = 16
    journal_path: str | None = None
    #: Distinct queued batchable solves that trigger one
    #: :func:`~repro.core.batch.solve_batch` fan-out instead of
    #: individual warm-chain solves.
    batch_min: int = 3
    #: How long the first queued solve waits for company before the
    #: batcher commits.  Cache hits and coalesced requests never pay
    #: this; set 0 to disable grouping entirely.
    batch_window_s: float = 0.004
    executor_workers: int = 4
    label: str = "serve"
    #: Admission high watermark: pending solves at which new solves
    #: are shed with ``overloaded``.  Shedding clears only once the
    #: backlog drains below ``low_watermark`` (default: half).
    max_pending: int = 64
    low_watermark: int | None = None
    #: Base backoff hint on shed requests, scaled by backlog depth.
    retry_after_ms: float = 50.0
    #: Frames in flight per connection before further frames are
    #: answered inline with ``overloaded`` (pipelining bound).
    max_inflight_per_conn: int = 8
    #: Stream-reader frame bound: a line longer than this is a
    #: protocol error and the connection closes (its buffer is gone).
    max_frame_bytes: int = 1 * 1024 * 1024
    #: Server-side default deadline applied when a request carries no
    #: ``deadline_ms`` of its own (None: no default).
    default_deadline_ms: float | None = None
    #: Degrade deadline-bound exact solves to the certified-gap
    #: approx backend on budget exhaustion instead of erroring.
    deadline_fallback: bool = True
    #: Serve expired cache entries for this long past their TTL
    #: (tagged ``tier: "stale"``) while a background refresh re-solves.
    stale_grace_s: float = 0.0
    #: Threads for ``prepare`` (task/problem binding) — separate from
    #: the solve executor so cache hits never queue behind solves.
    prep_workers: int = 2
    #: Hard bound on waiting for in-flight work during drain.
    drain_timeout_s: float = 30.0


@dataclass
class _Job:
    """One de-duplicated solve admitted past the cache."""

    prepared: PreparedRequest
    future: asyncio.Future
    generation: int
    span_context: dict | None = field(default=None)
    deadline: Deadline | None = field(default=None)


class _Connection:
    """Per-connection pipelining state.

    One reader loop spawns a task per frame; responses serialize
    through ``lock`` so concurrent completions never interleave
    bytes.  ``closed`` flips when the client goes away — in-flight
    solves then orphan-complete into the cache and their responses
    are dropped (counter ``serve.request.abandoned``).
    """

    __slots__ = ("writer", "lock", "tasks", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()
        self.closed = False


class SolverServer:
    """One daemon: asyncio front, thread executor + process pool back."""

    def __init__(
        self, config: ServerConfig, session: SolverSession | None = None
    ) -> None:
        self.config = config
        self.session = session or SolverSession(
            max_tasks=config.max_resident_tasks,
            max_warm=config.max_warm_chains,
        )
        journal = (
            CacheJournal(config.journal_path)
            if config.journal_path
            else None
        )
        self.cache = ResultCache(
            ttl_s=config.ttl_s,
            max_entries=config.max_cached_results,
            journal=journal,
            stale_grace_s=config.stale_grace_s,
        )
        self.admission = AdmissionController(
            high_watermark=config.max_pending,
            low_watermark=config.low_watermark,
            retry_after_ms=config.retry_after_ms,
        )
        self._journal = journal
        self._inflight: dict[str, asyncio.Future] = {}
        self._batch_queue: asyncio.Queue[_Job] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._batcher: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = None
        self._prep_executor = None
        self._obs_stack: ExitStack | None = None
        self.recorder = None
        self._metrics_was_enabled = False
        self._metrics_base: dict = {}
        self._started_s = 0.0
        self._requests = 0
        self._generation = 0
        self._stopping: asyncio.Event | None = None
        self._draining = False
        self._request_tasks: set[asyncio.Task] = set()

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._batch_queue = asyncio.Queue()
        self._stopping = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="serve-solve",
        )
        # Cache hits answer through this small dedicated pool so they
        # never queue behind long solves on the solve executor.
        self._prep_executor = ThreadPoolExecutor(
            max_workers=self.config.prep_workers,
            thread_name_prefix="serve-prep",
        )
        self._metrics_was_enabled = METRICS.enabled
        METRICS.enable()
        # Counters in the ``stats`` op are deltas against this base:
        # the registry is process-global and survives restarts within
        # one process (tests run several daemons back to back).
        self._metrics_base = METRICS.snapshot()
        self._obs_stack = ExitStack()
        self.recorder = self._obs_stack.enter_context(
            collecting_spans(self.config.label)
        )
        if self._journal is not None:
            self._journal.replay_into(self.cache)
        socket_path = self.config.socket_path
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self._server = await asyncio.start_unix_server(
            self._handle_connection,
            path=socket_path,
            limit=self.config.max_frame_bytes,
        )
        self._batcher = asyncio.create_task(self._batch_loop())
        self._started_s = time.time()
        logger.info("serving on %s", socket_path)

    async def wait_closed(self) -> None:
        await self._stopping.wait()
        await self._shutdown()

    def _begin_drain(self) -> None:
        """Stop accepting work: close the listener, flag queued sheds.

        Idempotent; called by the ``drain`` op, SIGTERM and the
        shutdown path alike.  Already-started solves are unaffected —
        anything not yet past the drain check in
        :meth:`_solve_in_thread` counts as queued-unstarted and is
        shed with a structured ``draining`` error.
        """
        if self._draining:
            return
        self._draining = True
        METRICS.increment("serve.drain.begun")
        if self._server is not None:
            self._server.close()
        logger.info(
            "draining %s: %d pending solves, %d request tasks in flight",
            self.config.socket_path,
            self.admission.pending,
            len(self._request_tasks),
        )

    async def _shutdown(self) -> None:
        self._begin_drain()
        if self._server is not None:
            await self._server.wait_closed()
        # Shed solves still parked in the micro-batch window: their
        # awaiting request tasks resolve with ``draining`` errors.
        if self._batch_queue is not None:
            while True:
                try:
                    job = self._batch_queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self._fail(job, DrainingError("daemon draining"))
        # Let in-flight request tasks finish (solve + response write),
        # bounded by the hard drain timeout.
        pending = {t for t in self._request_tasks if not t.done()}
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.config.drain_timeout_s
            )
            if still_pending:
                logger.warning(
                    "drain timeout: cancelling %d request tasks",
                    len(still_pending),
                )
                for task in still_pending:
                    task.cancel()
                await asyncio.gather(*still_pending, return_exceptions=True)
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._prep_executor is not None:
            self._prep_executor.shutdown(wait=True)
        if self._journal is not None:
            # Final flush barrier: every cached answer is on disk
            # before the process exits, so a restart replays warm.
            self._journal.sync()
        if self._obs_stack is not None:
            self._obs_stack.close()
        if not self._metrics_was_enabled:
            METRICS.disable()
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass
        logger.info("server on %s stopped", self.config.socket_path)

    def request_shutdown(self) -> None:
        self._stopping.set()

    # -- connection handling -----------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        if self._draining:
            await self._send(conn, {
                "id": None, "ok": False,
                "error": "daemon draining", "kind": "draining",
            })
            await self._close_writer(writer)
            return
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    if exc.partial.strip():
                        # Bytes but no frame delimiter before EOF: a
                        # truncated frame, answered best-effort.
                        METRICS.increment("serve.request.truncated")
                        await self._send(conn, {
                            "id": None, "ok": False,
                            "error": "truncated frame (EOF before newline)",
                            "kind": "protocol",
                        })
                    break
                except asyncio.LimitOverrunError:
                    # The frame exceeds the stream limit and the
                    # buffer can no longer be re-framed: answer
                    # structurally, then close.
                    METRICS.increment("serve.request.oversized")
                    await self._send(conn, {
                        "id": None, "ok": False,
                        "error": (
                            "frame exceeds "
                            f"{self.config.max_frame_bytes} bytes"
                        ),
                        "kind": "protocol",
                    })
                    break
                except (ConnectionResetError, OSError):
                    break
                if len(conn.tasks) >= self.config.max_inflight_per_conn:
                    METRICS.increment("serve.admission.conn_capped")
                    request_id = None
                    try:
                        request_id = decode_message(line).get("id")
                    except ProtocolError:
                        pass
                    await self._send(conn, {
                        "id": request_id, "ok": False,
                        "error": (
                            "connection in-flight cap "
                            f"({self.config.max_inflight_per_conn}) reached"
                        ),
                        "kind": "overloaded",
                        "retry_after_ms": self.admission.retry_after_ms,
                    })
                    continue
                task = asyncio.ensure_future(self._serve_line(conn, line))
                conn.tasks.add(task)
                self._request_tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
                task.add_done_callback(self._request_tasks.discard)
        except asyncio.CancelledError:
            # Shutdown with this connection idle-open: exit cleanly so
            # the loop teardown does not log the cancelled reader task.
            pass
        finally:
            # The client is gone (or we are). In-flight tasks keep
            # running — their solves orphan-complete into the cache —
            # but their responses will find ``conn.closed`` and be
            # counted abandoned.
            conn.closed = True
            await self._close_writer(writer)

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _serve_line(self, conn: _Connection, line: bytes) -> None:
        """One pipelined frame: decode, dispatch, respond."""
        response = await self._handle_line(line)
        await self._send(conn, response)

    async def _send(self, conn: _Connection, response: dict) -> bool:
        """Write one response frame; False if the client is gone.

        A dropped response is *not* an error: the solve (if any)
        already completed into the cache for the next asker —
        counter ``serve.request.abandoned``.
        """
        try:
            faults.maybe_fire(faults.SITE_SERVE_CLIENT_DISCONNECT)
        except faults.InjectedFault:
            conn.closed = True
            conn.writer.close()
        if conn.closed:
            METRICS.increment("serve.request.abandoned")
            return False
        async with conn.lock:
            try:
                conn.writer.write(encode_message(response))
                await conn.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    RuntimeError):
                conn.closed = True
                METRICS.increment("serve.request.abandoned")
                return False
        return True

    async def _handle_line(self, line: bytes) -> dict:
        request_id = None
        tier = None
        start = time.perf_counter()
        try:
            message = decode_message(line)
            request_id = message.get("id")
            op = message.get("op")
            if op not in OPS:
                raise ProtocolError(f"unknown op {op!r}")
            # The deadline starts here — queue wait, prepare and solve
            # all spend from the same budget.
            budget_ms = deadline_budget_from_message(
                message, self.config.default_deadline_ms
            )
            deadline = (
                Deadline(budget_ms / 1e3) if budget_ms is not None else None
            )
            if self._draining and op in ("solve", "sweep", "stream"):
                raise DrainingError("daemon draining")
            params = normalize_params(op, message.get("params"))
            self._requests += 1
            with span("serve.request", op=op):
                result, cache_state = await self._dispatch(
                    op, params, deadline
                )
            response = {
                "id": request_id,
                "ok": True,
                "op": op,
                "result": result,
            }
            if cache_state is not None:
                response["cache"] = cache_state
            if isinstance(result, dict):
                tier = result.get("tier")
        except ProtocolError as exc:
            METRICS.increment("serve.request.errors")
            response = {
                "id": request_id, "ok": False,
                "error": str(exc), "kind": "protocol",
            }
        except OverloadedError as exc:
            response = {
                "id": request_id, "ok": False,
                "error": str(exc), "kind": "overloaded",
                "retry_after_ms": exc.retry_after_ms,
            }
        except DeadlineExceededError as exc:
            METRICS.increment("serve.deadline.exceeded")
            response = {
                "id": request_id, "ok": False,
                "error": str(exc), "kind": "deadline_exceeded",
                "elapsed_ms": exc.elapsed_ms,
                "budget_ms": exc.budget_ms,
            }
        except DrainingError as exc:
            METRICS.increment("serve.admission.drain_shed")
            response = {
                "id": request_id, "ok": False,
                "error": str(exc), "kind": "draining",
            }
        except Exception as exc:
            METRICS.increment("serve.request.errors")
            logger.exception("request failed")
            response = {
                "id": request_id, "ok": False,
                "error": f"{type(exc).__name__}: {exc}", "kind": "solve",
            }
        latency = time.perf_counter() - start
        METRICS.observe_histogram("serve.request.latency", latency)
        if tier is not None:
            METRICS.observe_histogram(
                f"serve.request.latency.{tier}", latency
            )
        response["latency_s"] = latency
        return response

    # -- op dispatch --------------------------------------------------

    async def _dispatch(self, op: str, params: dict, deadline=None):
        if op == "ping":
            return {
                "pong": True,
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "uptime_s": time.time() - self._started_s,
            }, None
        if op == "stats":
            return self._stats(), None
        if op == "health":
            return self._health(), None
        if op == "invalidate":
            return self._invalidate(params.get("topology")), None
        if op == "dump_trace":
            return self._dump_trace(params), None
        if op == "drain":
            pending = self.admission.pending
            self._begin_drain()
            self._loop.call_soon(self.request_shutdown)
            return {"draining": True, "pending_solves": pending}, None
        if op == "shutdown":
            self._loop.call_soon(self.request_shutdown)
            return {"stopping": True}, None
        if op == "stream":
            return await self._run_stream(params, deadline)
        return await self._solve_or_sweep(op, params, deadline)

    def _health(self) -> dict:
        """Cheap liveness/readiness snapshot (no solve-path work).

        ``status`` is ``"draining"`` (terminating: fail readiness),
        ``"shedding"`` (up but refusing new solves) or ``"ok"``.
        """
        if self._draining:
            status = "draining"
        elif self.admission.shedding:
            status = "shedding"
        else:
            status = "ok"
        return {
            "status": status,
            "admission": self.admission.snapshot(),
            "inflight_solves": len(self._inflight),
            "cached_results": len(self.cache),
            "uptime_s": time.time() - self._started_s,
            "pid": os.getpid(),
        }

    def _stats(self) -> dict:
        snapshot = diff_snapshots(METRICS.snapshot(), self._metrics_base)
        return {
            "uptime_s": time.time() - self._started_s,
            "requests": self._requests,
            "pid": os.getpid(),
            "resident": {
                "results": len(self.cache),
                "tasks": self.session.resident_tasks,
                "warm_chains": self.session.resident_chains,
                "inflight": len(self._inflight),
            },
            "admission": self.admission.snapshot(),
            "draining": self._draining,
            "counters": snapshot["counters"],
            "histograms": {
                name: record
                for name, record in snapshot["histograms"].items()
                if name.startswith("serve.")
            },
            "spans_recorded": len(self.recorder),
        }

    def _invalidate(self, topology: str | None) -> dict:
        # Bump the generation first: an in-flight solve admitted before
        # the invalidation must not re-poison the cache afterwards.
        self._generation += 1
        removed = self.cache.invalidate(topology)
        dropped = self.session.invalidate(topology)
        logger.info(
            "invalidated scope=%s: %d cached results, %d resident objects",
            topology or "all", removed, dropped,
        )
        return {
            "topology": topology,
            "removed_results": removed,
            "dropped_resident": dropped,
        }

    def _dump_trace(self, params: dict) -> dict:
        path = params.get("path")
        if not path:
            raise ProtocolError("dump_trace needs a 'path' param")
        manifest_path = write_manifest(
            path,
            SolverTrace(label=self.config.label),
            metrics=METRICS.snapshot(),
            spans=self.recorder.spans,
            extra={"serve": {"requests": self._requests}},
        )
        return {
            "path": str(manifest_path),
            "spans": len(self.recorder.spans),
        }

    # -- the solve path ----------------------------------------------

    async def _run_stream(self, params: dict, deadline=None):
        """One streaming-trace request, end to end in one solver slot.

        Streams bypass the result cache, stale serves and coalescing
        entirely: the answer depends on controller state that lives
        only for this request, so no two stream requests are ever the
        same cached answer.  They still consult admission — a trace of
        N intervals is N real solves.
        """
        if self._draining:
            raise DrainingError("daemon draining")
        self.admission.try_admit()
        METRICS.increment("serve.stream.requests")
        span_context = current_span_context()

        def _run() -> dict:
            if deadline is not None and deadline.expired:
                METRICS.increment("serve.deadline.expired_in_queue")
                raise deadline.to_error()
            with using_span_context(span_context):
                return self.session.execute_stream(params, deadline=deadline)

        try:
            result = await self._loop.run_in_executor(self._executor, _run)
        finally:
            self.admission.release()
        return result, None

    async def _solve_or_sweep(self, op: str, params: dict, deadline=None):
        prepared = await self._loop.run_in_executor(
            self._prep_executor, self.session.prepare, op, params
        )
        cached = self.cache.get(prepared.key)
        if cached is not None:
            return cached, "hit"
        stale = self.cache.get_stale(prepared.key)
        if stale is not None:
            # Stale-while-revalidate: answer now from the expired but
            # grace-valid entry, re-solve in the background.  Stale
            # serves are never shed — they cost no solve.
            result, age_s = stale
            payload = dict(result)
            payload["tier"] = "stale"
            payload["stale"] = True
            payload["age_s"] = age_s
            METRICS.increment("serve.degraded.stale")
            self._maybe_refresh(prepared)
            return payload, "stale"

        inflight = self._inflight.get(prepared.key)
        if inflight is not None:
            METRICS.increment("serve.request.coalesced")
            return await asyncio.shield(inflight), "coalesced"

        if self._draining:
            raise DrainingError("daemon draining")
        # Only net-new solve work consults admission: cache hits,
        # stale serves and coalesced attachments never shed.
        self.admission.try_admit()
        future: asyncio.Future = self._loop.create_future()
        self._inflight[prepared.key] = future
        job = _Job(
            prepared=prepared,
            future=future,
            generation=self._generation,
            span_context=current_span_context(),
            deadline=deadline,
        )
        try:
            if (
                deadline is None
                and self.config.batch_window_s > 0
                and self.config.batch_min > 1
                and self.session.solve_batchable(prepared)
            ):
                # Deadline-bearing solves skip the batch window: the
                # window plus pool fan-out adds latency the budget may
                # not have.
                await self._batch_queue.put(job)
            else:
                asyncio.create_task(self._run_single(job))
            result = await asyncio.shield(future)
        finally:
            self._inflight.pop(prepared.key, None)
            self.admission.release()
        return result, "miss"

    def _maybe_refresh(self, prepared: PreparedRequest) -> None:
        """Background re-solve behind a stale serve (best effort).

        Skipped silently when the key is already being solved, the
        daemon is draining, or admission would shed it — a stale
        answer under overload is the *point* of the grace window, not
        a reason to add load.
        """
        if self._draining or prepared.key in self._inflight:
            return
        try:
            self.admission.try_admit()
        except OverloadedError:
            METRICS.increment("serve.cache.refresh_skipped")
            return
        METRICS.increment("serve.cache.refresh")
        future: asyncio.Future = self._loop.create_future()
        self._inflight[prepared.key] = future
        job = _Job(
            prepared=prepared,
            future=future,
            generation=self._generation,
            span_context=current_span_context(),
        )

        def _done(fut: asyncio.Future) -> None:
            self._inflight.pop(prepared.key, None)
            self.admission.release()
            if not fut.cancelled() and fut.exception() is not None:
                logger.warning(
                    "stale refresh failed: %s", fut.exception()
                )

        future.add_done_callback(_done)
        asyncio.create_task(self._run_single(job))

    def _solve_in_thread(self, job: _Job) -> dict:
        # Everything that reaches this point without having started is
        # queued-unstarted by definition — drain sheds it, and a
        # deadline that lapsed while queued sheds it without solving.
        if self._draining:
            raise DrainingError("daemon draining")
        if job.deadline is not None and job.deadline.expired:
            METRICS.increment("serve.deadline.expired_in_queue")
            raise job.deadline.to_error()
        with using_span_context(job.span_context):
            return self.session.execute(
                job.prepared,
                deadline=job.deadline,
                deadline_fallback=self.config.deadline_fallback,
            )

    def _finish(self, job: _Job, result: dict) -> None:
        if (
            job.generation == self._generation
            and result.get("converged")
            and not result.get("degraded")
            and result.get("tier", "exact") == "exact"
        ):
            self.cache.put(
                job.prepared.key, result, fingerprint=job.prepared.fingerprint
            )
        if not job.future.done():
            job.future.set_result(result)

    def _fail(self, job: _Job, exc: BaseException) -> None:
        if not job.future.done():
            job.future.set_exception(exc)

    async def _run_single(self, job: _Job) -> None:
        try:
            result = await self._loop.run_in_executor(
                self._executor, self._solve_in_thread, job
            )
        except Exception as exc:
            self._fail(job, exc)
        else:
            self._finish(job, result)

    async def _batch_loop(self) -> None:
        """Micro-batch distinct batchable solves through the process pool."""
        while True:
            job = await self._batch_queue.get()
            jobs = [job]
            if self.config.batch_window_s > 0:
                await asyncio.sleep(self.config.batch_window_s)
            while True:
                try:
                    jobs.append(self._batch_queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            groups: dict[tuple, list[_Job]] = {}
            for item in jobs:
                coords = (item.prepared.params["presolve"],)
                groups.setdefault(coords, []).append(item)
            for (presolve,), group in groups.items():
                if len(group) >= self.config.batch_min:
                    asyncio.create_task(self._run_batch(group, presolve))
                else:
                    for item in group:
                        asyncio.create_task(self._run_single(item))

    async def _run_batch(self, group: list[_Job], presolve: bool) -> None:
        from ..core.batch import solve_batch

        METRICS.increment("serve.batch.grouped")
        METRICS.increment("serve.batch.batched_requests", len(group))
        problems = [item.prepared.problem for item in group]

        def _run() -> list:
            if self._draining:
                raise DrainingError("daemon draining")
            with using_span_context(group[0].span_context):
                with span("serve.batch", tasks=len(problems)):
                    return solve_batch(problems, presolve=presolve)

        try:
            solutions = await self._loop.run_in_executor(
                self._executor, _run
            )
        except Exception as exc:
            for item in group:
                self._fail(item, exc)
            return
        for item, solution in zip(group, solutions):
            result = solution_payload(
                solution,
                item.prepared.link_names,
                item.prepared.od_names,
                backend="exact",
            )
            self._finish(item, result)


async def _serve_main(config: ServerConfig) -> None:
    import signal

    server = SolverServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    # SIGTERM / SIGINT initiate a graceful drain: the listener closes
    # immediately (new connections refused), queued-unstarted work is
    # shed, in-flight solves complete (bounded by drain_timeout_s) and
    # the journal is fsynced before exit.
    handled: list[int] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_shutdown)
            handled.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or unsupported platform
    try:
        await server.wait_closed()
    except asyncio.CancelledError:  # pragma: no cover - signal teardown
        server.request_shutdown()
        await server.wait_closed()
        raise
    finally:
        for sig in handled:
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass


def run_server(config: ServerConfig) -> None:
    """Run a daemon in the current thread until shutdown is requested."""
    asyncio.run(_serve_main(config))


class ServerThread:
    """A daemon on a background thread (tests, benchmarks, CI smoke).

    ``start`` blocks until the socket accepts connections; ``stop``
    requests shutdown through the event loop and joins the thread.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.server: SolverServer | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    def _run(self) -> None:
        async def _main() -> None:
            self.server = SolverServer(self.config)
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            except BaseException as exc:
                self._error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.server.wait_closed()

        try:
            asyncio.run(_main())
        except BaseException as exc:  # pragma: no cover - surfaced via join
            if self._error is None:
                self._error = exc
            self._ready.set()

    def start(self, timeout_s: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="serve-daemon", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise TimeoutError("daemon did not come up in time")
        if self._error is not None:
            raise RuntimeError(
                f"daemon failed to start: {self._error}"
            ) from self._error
        return self

    def stop(self, timeout_s: float = 30.0) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout_s)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
