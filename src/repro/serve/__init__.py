"""The serving layer: a warm solver daemon over a local Unix socket.

Every solve through the CLI is a cold process: import, topology
build, routing matrix, presolve, solve, exit.  ``repro.serve`` keeps
all of that resident and answers repeat questions from warm state:

* :mod:`~repro.serve.protocol` — newline-delimited JSON framing and
  the param normalizers that define request identity;
* :mod:`~repro.serve.admission` — admission control with watermark
  hysteresis, per-request monotonic deadlines and the structured
  shedding errors (``overloaded`` / ``deadline_exceeded`` /
  ``draining``);
* :mod:`~repro.serve.session` — resident tasks, problems and
  warm-start chains plus content fingerprinting;
* :mod:`~repro.serve.cache` — TTL + LRU certified-result cache with
  an fsynced JSONL journal for restart re-warming;
* :mod:`~repro.serve.server` — the asyncio daemon: single-flight
  request coalescing, micro-batching through the process pool, spans and
  latency histograms on every request;
* :mod:`~repro.serve.client` — the blocking client behind
  ``netsampling request`` and the CLI's ``--daemon`` routing.

See ``docs/serving.md`` for the protocol and operational story.
"""

from .admission import (
    AdmissionController,
    Deadline,
    DeadlineExceededError,
    DrainingError,
    OverloadedError,
)
from .cache import CacheEntry, CacheJournal, ResultCache, fingerprint_key
from .client import (
    DaemonUnavailable,
    ServeClient,
    ServeConnectionError,
    ServeError,
    ServeRequestError,
    daemon_available,
)
from .protocol import (
    ERROR_KINDS,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    deadline_budget_from_message,
    decode_message,
    encode_message,
    normalize_params,
    normalize_solve_params,
    normalize_stream_params,
    normalize_sweep_params,
    solve_params_from_args,
    stream_params_from_args,
    sweep_params_from_args,
)
from .server import ServerConfig, ServerThread, SolverServer, run_server
from .session import (
    PreparedRequest,
    SolverSession,
    build_task,
    resolve_topology,
    solution_payload,
    stream_payload,
)

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "ERROR_KINDS",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "deadline_budget_from_message",
    "normalize_params",
    "normalize_solve_params",
    "normalize_sweep_params",
    "normalize_stream_params",
    "solve_params_from_args",
    "sweep_params_from_args",
    "stream_params_from_args",
    "CacheEntry",
    "CacheJournal",
    "ResultCache",
    "fingerprint_key",
    "AdmissionController",
    "Deadline",
    "DeadlineExceededError",
    "DrainingError",
    "OverloadedError",
    "ServeClient",
    "ServeError",
    "ServeConnectionError",
    "DaemonUnavailable",
    "ServeRequestError",
    "daemon_available",
    "ServerConfig",
    "ServerThread",
    "SolverServer",
    "run_server",
    "PreparedRequest",
    "SolverSession",
    "build_task",
    "resolve_topology",
    "solution_payload",
    "stream_payload",
]
