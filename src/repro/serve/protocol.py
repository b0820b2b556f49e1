"""Wire protocol of the solver daemon: newline-delimited JSON.

One request per line, one response per line, over a local Unix
socket.  Every message is a single JSON object; requests carry an
``op`` plus an ``op``-specific ``params`` object, responses echo the
request ``id`` and carry either a ``result`` or an ``error``::

    -> {"op": "solve", "id": "a1", "params": {"topology": "geant",
        "theta": 100000.0}}
    <- {"id": "a1", "ok": true, "cache": "miss", "latency_s": 0.031,
        "result": {"converged": true, "objective": ..., ...}}

The param normalizers here are the single source of truth for request
identity: the daemon fingerprints the *normalized* params, so two
requests that spell the same problem differently (``theta=1e5`` vs
``theta=100000``, flags in any order) coalesce onto the same cache
entry.  The CLI builds every ``solve``, ``sweep`` and ``stream``
request through :func:`solve_params_from_args` /
:func:`sweep_params_from_args` / :func:`stream_params_from_args` and
runs it through the same session code inline or over ``--daemon``, so
the two routes can never drift apart.

``deadline_ms`` is a *top-level* request field, deliberately outside
``params``: a deadline changes how hard the daemon may work on the
answer, never which answer is correct, so it must not split the cache
key.  :func:`deadline_budget_from_message` validates it.

Error responses are structured, never connection resets.  ``kind``
is one of ``protocol`` (malformed request), ``solve`` (the solver
raised), ``overloaded`` (admission shed; carries ``retry_after_ms``),
``deadline_exceeded`` (carries ``elapsed_ms`` / ``budget_ms``) or
``draining`` (the daemon is shutting down gracefully).

Newlines cannot appear inside a message — ``json.dumps`` never emits
raw newlines — so framing is a plain ``readline`` on both ends.
"""

from __future__ import annotations

import json

from ..scale import BACKEND_ALIASES, BACKEND_NAMES

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "ProtocolError",
    "ERROR_KINDS",
    "encode_message",
    "decode_message",
    "deadline_budget_from_message",
    "normalize_task_params",
    "normalize_solve_params",
    "normalize_sweep_params",
    "normalize_stream_params",
    "normalize_params",
    "task_params_from_args",
    "solve_params_from_args",
    "sweep_params_from_args",
    "stream_params_from_args",
]

PROTOCOL_VERSION = 1

#: Hard cap on one framed message; a line past this is a protocol
#: error, not an allocation.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Every operation the daemon understands.
OPS = (
    "ping",
    "solve",
    "sweep",
    "stream",
    "stats",
    "health",
    "invalidate",
    "dump_trace",
    "drain",
    "shutdown",
)

#: Error-response ``kind`` values a client may see.
ERROR_KINDS = (
    "protocol",
    "solve",
    "overloaded",
    "deadline_exceeded",
    "draining",
)

_METHODS = ("gradient_projection", "slsqp", "trust-constr")


class ProtocolError(ValueError):
    """A malformed request or response message."""


def encode_message(payload: dict) -> bytes:
    """One compact JSON object plus the newline frame delimiter."""
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def decode_message(line: bytes | str) -> dict:
    """Parse one framed line back into a message dict."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                f"message exceeds {MAX_LINE_BYTES} bytes"
            )
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty message")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    return payload


def deadline_budget_from_message(
    message: dict, default_ms: float | None = None
) -> float | None:
    """The request's deadline budget in milliseconds, validated.

    ``deadline_ms`` lives at the top level of the message (next to
    ``op``), not in ``params`` — it is delivery metadata, not request
    identity.  Falls back to ``default_ms`` (a server-side default)
    when absent; returns None when neither is set.
    """
    raw = message.get("deadline_ms", None)
    if raw is None:
        raw = default_ms
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ProtocolError("deadline_ms must be a number")
    if value <= 0:
        raise ProtocolError("deadline_ms must be positive")
    return value


def _require_float(params: dict, key: str, positive: bool = True) -> float:
    value = params.get(key)
    if value is None:
        raise ProtocolError(f"missing required param {key!r}")
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"param {key!r} must be a number")
    if positive and value <= 0:
        raise ProtocolError(f"param {key!r} must be positive")
    return value


def _normalize_od(specs) -> list[list]:
    """Canonical OD list: ``[[origin, dest, pps], ...]`` (order kept).

    Order is part of the identity: OD order determines the utility
    vector's order in results.
    """
    if specs in (None, ()):
        return []
    if not isinstance(specs, (list, tuple)):
        raise ProtocolError("param 'od' must be a list of [o, d, pps]")
    out = []
    for spec in specs:
        if not isinstance(spec, (list, tuple)) or len(spec) != 3:
            raise ProtocolError(f"bad od entry {spec!r}: want [o, d, pps]")
        origin, dest, pps = spec
        try:
            pps = float(pps)
        except (TypeError, ValueError):
            raise ProtocolError(f"bad od entry {spec!r}: pps not a number")
        if pps <= 0:
            raise ProtocolError(f"bad od entry {spec!r}: pps must be > 0")
        out.append([str(origin), str(dest), pps])
    return out


def normalize_task_params(params: dict) -> dict:
    """Canonical form of the task-building params.

    :func:`repro.serve.session.build_task` resolves them in order:
    ``task_file``, then ``od`` specs on ``topology``, then the paper's
    JANET task on GEANT.  Only an absent (None) ``interval`` or
    ``alpha`` takes the default; an explicit 0 is rejected.
    """
    task = {
        "topology": str(params.get("topology") or "geant"),
        "od": _normalize_od(params.get("od")),
        "task_file": (
            str(params["task_file"])
            if params.get("task_file") is not None
            else None
        ),
        "background": (
            float(params["background"])
            if params.get("background") is not None
            else None
        ),
        "seed": (
            int(params["seed"]) if params.get("seed") is not None else None
        ),
        "interval": float(
            300.0 if params.get("interval") is None else params["interval"]
        ),
        "alpha": float(1.0 if params.get("alpha") is None else params["alpha"]),
    }
    if task["interval"] <= 0:
        raise ProtocolError("param 'interval' must be positive")
    if not 0 < task["alpha"] <= 1.0:
        raise ProtocolError("param 'alpha' must be in (0, 1]")
    return task


_TASK_KEYS = frozenset(
    ("topology", "od", "task_file", "background", "seed", "interval", "alpha")
)
_SOLVE_KEYS = _TASK_KEYS | {"theta", "method", "backend", "presolve"}
_SWEEP_KEYS = _TASK_KEYS | {
    "theta_min", "theta_max", "points", "method", "presolve",
}
_STREAM_KEYS = _TASK_KEYS | {
    "theta", "intervals", "noise", "trough", "start_hour",
    "reconfig_weight", "trace_seed", "anomaly",
}


def _reject_unknown(params: dict, allowed: frozenset, op: str) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ProtocolError(f"unknown {op} params: {', '.join(unknown)}")


def normalize_solve_params(params: dict) -> dict:
    """Canonical solve params: defaults filled, values validated."""
    if not isinstance(params, dict):
        raise ProtocolError("solve params must be an object")
    _reject_unknown(params, _SOLVE_KEYS, "solve")
    out = normalize_task_params(params)
    out["theta"] = _require_float(params, "theta")
    out["method"] = str(params.get("method") or "gradient_projection")
    if out["method"] not in _METHODS:
        raise ProtocolError(f"unknown method {out['method']!r}")
    backend = str(params.get("backend") or "exact")
    if backend not in BACKEND_NAMES:
        raise ProtocolError(f"unknown backend {backend!r}")
    out["backend"] = BACKEND_ALIASES.get(backend, backend)
    if out["backend"] != "exact" and out["method"] != "gradient_projection":
        raise ProtocolError(
            "a non-exact backend replaces the solver; drop 'method'"
        )
    out["presolve"] = bool(params.get("presolve", True))
    return out


def normalize_sweep_params(params: dict) -> dict:
    """Canonical sweep params: defaults filled, values validated."""
    if not isinstance(params, dict):
        raise ProtocolError("sweep params must be an object")
    _reject_unknown(params, _SWEEP_KEYS, "sweep")
    out = normalize_task_params(params)
    out["theta_min"] = _require_float(params, "theta_min")
    out["theta_max"] = _require_float(params, "theta_max")
    if out["theta_max"] < out["theta_min"]:
        raise ProtocolError("need theta_min <= theta_max")
    points = params.get("points", 10)
    try:
        out["points"] = int(points)
    except (TypeError, ValueError):
        raise ProtocolError("param 'points' must be an integer")
    if out["points"] < 2:
        raise ProtocolError("param 'points' must be at least 2")
    out["method"] = str(params.get("method") or "gradient_projection")
    if out["method"] not in _METHODS:
        raise ProtocolError(f"unknown method {out['method']!r}")
    out["presolve"] = bool(params.get("presolve", True))
    return out


def _normalize_anomaly(spec) -> list | None:
    """Canonical anomaly event: ``[od_index, magnitude, start, duration]``."""
    if spec is None:
        return None
    if not isinstance(spec, (list, tuple)) or len(spec) != 4:
        raise ProtocolError(
            "param 'anomaly' must be [od_index, magnitude, start, duration]"
        )
    od_index, magnitude, start, duration = spec
    try:
        od_index = int(od_index)
        magnitude = float(magnitude)
        start = int(start)
        duration = int(duration)
    except (TypeError, ValueError):
        raise ProtocolError(f"bad anomaly spec {spec!r}")
    if od_index < 0:
        raise ProtocolError("anomaly od_index must be >= 0")
    if magnitude <= 0:
        raise ProtocolError("anomaly magnitude must be positive")
    if start < 0 or duration < 1:
        raise ProtocolError(
            "anomaly must start at >= 0 and last >= 1 interval"
        )
    return [od_index, magnitude, start, duration]


def normalize_stream_params(params: dict) -> dict:
    """Canonical streaming-trace params: defaults filled, validated.

    A stream request runs the whole generated trace server-side —
    the warm chain, the tracker and the change-point logic live for
    the duration of the request, so the answer is a per-interval
    report, not a single cached solution.
    """
    if not isinstance(params, dict):
        raise ProtocolError("stream params must be an object")
    _reject_unknown(params, _STREAM_KEYS, "stream")
    out = normalize_task_params(params)
    out["theta"] = _require_float(params, "theta")
    intervals = params.get("intervals", 24)
    try:
        out["intervals"] = int(intervals)
    except (TypeError, ValueError):
        raise ProtocolError("param 'intervals' must be an integer")
    if out["intervals"] < 1:
        raise ProtocolError("param 'intervals' must be at least 1")
    noise = params.get("noise", 0.05)
    try:
        out["noise"] = float(noise)
    except (TypeError, ValueError):
        raise ProtocolError("param 'noise' must be a number")
    if out["noise"] < 0:
        raise ProtocolError("param 'noise' must be non-negative")
    trough = params.get("trough", 0.4)
    try:
        out["trough"] = float(trough)
    except (TypeError, ValueError):
        raise ProtocolError("param 'trough' must be a number")
    if not 0 < out["trough"] <= 1.0:
        raise ProtocolError("param 'trough' must be in (0, 1]")
    start_hour = params.get("start_hour", 0.0)
    try:
        out["start_hour"] = float(start_hour)
    except (TypeError, ValueError):
        raise ProtocolError("param 'start_hour' must be a number")
    if out["start_hour"] < 0:
        raise ProtocolError("param 'start_hour' must be non-negative")
    weight = params.get("reconfig_weight", 0.0)
    try:
        out["reconfig_weight"] = float(weight)
    except (TypeError, ValueError):
        raise ProtocolError("param 'reconfig_weight' must be a number")
    if out["reconfig_weight"] < 0:
        raise ProtocolError("param 'reconfig_weight' must be non-negative")
    out["trace_seed"] = (
        int(params["trace_seed"])
        if params.get("trace_seed") is not None
        else None
    )
    out["anomaly"] = _normalize_anomaly(params.get("anomaly"))
    return out


def normalize_params(op: str, params: dict | None) -> dict:
    """Dispatch to the op's normalizer (non-solve ops pass through)."""
    params = params or {}
    if op == "solve":
        return normalize_solve_params(params)
    if op == "sweep":
        return normalize_sweep_params(params)
    if op == "stream":
        return normalize_stream_params(params)
    if not isinstance(params, dict):
        raise ProtocolError(f"{op} params must be an object")
    return dict(params)


def task_params_from_args(args) -> dict:
    """The task-building subset of an argparse namespace, daemon-shaped."""
    return {
        "topology": getattr(args, "topology", None) or "geant",
        "od": [list(_split_od(spec)) for spec in getattr(args, "od", [])],
        "task_file": getattr(args, "task_file", None),
        "background": getattr(args, "background", None),
        "seed": getattr(args, "seed", None),
        "interval": getattr(args, "interval", 300.0),
        "alpha": getattr(args, "alpha", 1.0),
    }


def _split_od(spec) -> tuple[str, str, float]:
    """Parse one ``ORIGIN:DEST:PPS`` OD-pair spec (or a 3-item list)."""
    if isinstance(spec, (list, tuple)) and len(spec) == 3:
        origin, dest, pps = spec
    else:
        parts = str(spec).split(":")
        if len(parts) != 3:
            raise ProtocolError(f"bad --od {spec!r}: expected ORIGIN:DEST:PPS")
        origin, dest, pps = parts
    try:
        pps = float(pps)
    except (TypeError, ValueError):
        raise ProtocolError(f"bad --od {spec!r}: PPS must be a number")
    if pps <= 0:
        raise ProtocolError(f"bad --od {spec!r}: PPS must be positive")
    return str(origin), str(dest), pps


def solve_params_from_args(args) -> dict:
    """``netsampling solve`` flags -> normalized daemon solve params."""
    params = task_params_from_args(args)
    params.update(
        theta=getattr(args, "theta", None),
        method=getattr(args, "method", "gradient_projection"),
        backend=getattr(args, "backend", "exact"),
        presolve=getattr(args, "presolve", True),
    )
    return normalize_solve_params(params)


def sweep_params_from_args(args) -> dict:
    """``netsampling sweep`` flags -> normalized daemon sweep params."""
    params = task_params_from_args(args)
    params.update(
        theta_min=getattr(args, "theta_min", None),
        theta_max=getattr(args, "theta_max", None),
        points=getattr(args, "points", 10),
        method=getattr(args, "method", "gradient_projection"),
        presolve=getattr(args, "presolve", True),
    )
    return normalize_sweep_params(params)


def _split_anomaly(spec) -> list | None:
    if spec is None:
        return None
    if isinstance(spec, (list, tuple)):
        return list(spec)
    parts = str(spec).split(":")
    if len(parts) != 4:
        raise ProtocolError(
            f"bad anomaly spec {spec!r}: want OD:MAGNITUDE:START:DURATION"
        )
    return [parts[0], parts[1], parts[2], parts[3]]


def stream_params_from_args(args) -> dict:
    """``netsampling stream`` flags -> normalized daemon stream params."""
    params = task_params_from_args(args)
    params.update(
        theta=getattr(args, "theta", None),
        intervals=getattr(args, "intervals", 24),
        noise=getattr(args, "noise", 0.05),
        trough=getattr(args, "trough", 0.4),
        start_hour=getattr(args, "start_hour", 0.0),
        reconfig_weight=getattr(args, "reconfig_weight", 0.0),
        trace_seed=getattr(args, "trace_seed", None),
        anomaly=_split_anomaly(getattr(args, "anomaly", None)),
    )
    return normalize_stream_params(params)
