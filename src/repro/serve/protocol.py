"""Wire protocol of the allocation daemon: newline-delimited JSON.

One request or response per line, UTF-8, each line a single JSON object —
trivially debuggable with ``nc``/``socat`` and parseable from any language.
Responses carry the request ``id`` and may arrive out of request order
(requests on one connection are handled concurrently), so clients match on
``id`` rather than position.

Configurations travel as a compact :class:`ConfigSpec` — a seed plus the
paper's sweepable knobs — not as a full serialized
:class:`~repro.core.config.SystemConfig`: :meth:`ConfigSpec.build` is
deterministic, so the client and server construct fingerprint-identical
configs from the same spec, which is what makes daemon results byte-identical
to a direct :meth:`~repro.api.service.SolverService.solve` of the same spec.

Request ops:

==========  ===============================================================
``solve``   solve the spec's configuration (the daemon may coalesce/batch it)
``stats``   server counters: requests, solves, coalesced, shed, cache info
``ping``    liveness probe (returns ``{"pong": true}`` in the meta)
``health``  readiness detail: queue depth, worker states, breaker, cache
``drain``   begin graceful shutdown: stop accepting, flush in-flight, exit
==========  ===============================================================

Error responses carry the :mod:`repro.errors` taxonomy: the exception class
name, its CLI exit code, and a message — a client can branch on *why* a
request failed exactly the way scripts branch on ``python -m repro`` exit
codes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.core.config import SystemConfig, paper_config
from repro.errors import ConfigurationError, ReproError, exit_code_for

__all__ = [
    "ConfigSpec",
    "ServeRequest",
    "ServeResponse",
    "decode_line",
    "encode_line",
    "error_payload",
    "exception_from_payload",
]

#: Protocol revision, stamped on every response (bump on breaking change).
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class ConfigSpec:
    """A deterministic recipe for a :class:`~repro.core.config.SystemConfig`.

    ``seed`` picks the channel realization of :func:`paper_config`; the
    optional overrides apply the paper's Fig.-6 sweep knobs.  Two equal
    specs build fingerprint-identical configs in any process.

    >>> spec = ConfigSpec(seed=2, total_bandwidth_hz=2e6)
    >>> restored = ConfigSpec.from_dict(spec.to_dict())
    >>> restored == spec
    True
    """

    seed: int = 2
    total_bandwidth_hz: Optional[float] = None
    total_frequency_hz: Optional[float] = None
    max_power_w: Optional[float] = None
    client_max_frequency_hz: Optional[float] = None

    def build(self) -> SystemConfig:
        """The spec's configuration (pure function of the spec's fields)."""
        config = paper_config(seed=self.seed)
        if self.total_bandwidth_hz is not None:
            config = config.with_total_bandwidth(float(self.total_bandwidth_hz))
        if self.total_frequency_hz is not None:
            config = config.with_total_server_frequency(
                float(self.total_frequency_hz)
            )
        if self.max_power_w is not None:
            config = config.with_max_power(float(self.max_power_w))
        if self.client_max_frequency_hz is not None:
            config = config.with_client_max_frequency(
                float(self.client_max_frequency_hz)
            )
        return config

    def to_dict(self) -> Dict[str, Any]:
        """Compact JSON body (None overrides omitted)."""
        body: Dict[str, Any] = {"seed": int(self.seed)}
        for name in (
            "total_bandwidth_hz",
            "total_frequency_hz",
            "max_power_w",
            "client_max_frequency_hz",
        ):
            value = getattr(self, name)
            if value is not None:
                body[name] = float(value)
        return body

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConfigSpec":
        unknown = set(data) - {
            "seed", "total_bandwidth_hz", "total_frequency_hz",
            "max_power_w", "client_max_frequency_hz",
            "kind", "format_version",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown config spec field(s) {sorted(unknown)}"
            )
        def _opt(name: str) -> Optional[float]:
            value = data.get(name)
            return None if value is None else float(value)

        return cls(
            seed=int(data.get("seed", 2)),
            total_bandwidth_hz=_opt("total_bandwidth_hz"),
            total_frequency_hz=_opt("total_frequency_hz"),
            max_power_w=_opt("max_power_w"),
            client_max_frequency_hz=_opt("client_max_frequency_hz"),
        )


#: Ops the server understands.
REQUEST_OPS = ("solve", "stats", "ping", "health", "drain")


@dataclass(frozen=True)
class ServeRequest:
    """One client request (the ``serve_request`` codec payload).

    >>> req = ServeRequest(id="r1", op="solve", spec=ConfigSpec(seed=3))
    >>> ServeRequest.from_dict(req.to_dict()) == req
    True
    """

    id: str
    op: str = "solve"
    spec: Optional[ConfigSpec] = None
    #: ``False`` forces a fresh backend solve (bypasses the result cache in
    #: both directions, mirroring ``SolverService.solve(use_cache=False)``).
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.op not in REQUEST_OPS:
            raise ConfigurationError(
                f"unknown request op {self.op!r}; valid: {REQUEST_OPS}"
            )
        if self.op == "solve" and self.spec is None:
            raise ConfigurationError("solve request needs a config spec")

    def to_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"id": str(self.id), "op": self.op}
        if self.spec is not None:
            body["spec"] = self.spec.to_dict()
        if not self.use_cache:
            body["use_cache"] = False
        return body

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeRequest":
        unknown = set(data) - {
            "id", "op", "spec", "use_cache", "kind", "format_version",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown request field(s) {sorted(unknown)}"
            )
        if "id" not in data:
            raise ConfigurationError("request missing required field 'id'")
        spec = data.get("spec")
        return cls(
            id=str(data["id"]),
            op=str(data.get("op", "solve")),
            spec=None if spec is None else ConfigSpec.from_dict(spec),
            use_cache=bool(data.get("use_cache", True)),
        )


@dataclass(frozen=True)
class ServeResponse:
    """One server response (the ``serve_response`` codec payload).

    Exactly one of ``result`` / ``stats`` / ``error`` is populated (``ping``
    answers carry only ``meta``).  ``result`` stays a *raw* ``quhe_result``
    payload dict rather than a decoded object.  On the wire the daemon
    writes it as the result's stored canonical text, spliced into the line
    unparsed, which keeps responses byte-stable across the cache and across
    processes.

    >>> resp = ServeResponse(id="r1", ok=False,
    ...                      error={"type": "SolverError", "exit_code": 3,
    ...                             "message": "singular"})
    >>> ServeResponse.from_dict(resp.to_dict()).error["exit_code"]
    3
    """

    id: str
    ok: bool
    result: Optional[Dict[str, Any]] = None
    stats: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    #: serving metadata: cache disposition, batch size, queue delay, …
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "id": str(self.id),
            "ok": bool(self.ok),
            "protocol": PROTOCOL_VERSION,
        }
        for name in ("result", "stats", "error"):
            value = getattr(self, name)
            if value is not None:
                body[name] = value
        if self.meta:
            body["meta"] = dict(self.meta)
        return body

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeResponse":
        unknown = set(data) - {
            "id", "ok", "protocol", "result", "stats", "error", "meta",
            "kind", "format_version",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown response field(s) {sorted(unknown)}"
            )
        return cls(
            id=str(data.get("id", "")),
            ok=bool(data.get("ok", False)),
            result=data.get("result"),
            stats=data.get("stats"),
            error=data.get("error"),
            meta=dict(data.get("meta", {})),
        )

    def raise_for_error(self) -> "ServeResponse":
        """Re-raise a server-side error client-side (taxonomy-typed).

        Maps the error payload back onto :mod:`repro.errors` by exit code
        where possible, so ``except ServerOverloaded:`` works on the client
        exactly as on the server.
        """
        if self.ok:
            return self
        raise exception_from_payload(self.error or {})


def exception_from_payload(info: Mapping[str, Any]) -> ReproError:
    """Rebuild the taxonomy exception a structured error body describes.

    The inverse of :func:`error_payload`, shared by
    :meth:`ServeResponse.raise_for_error` (client side) and the worker
    supervisor (which receives error bodies over a subprocess pipe).  An
    unknown type name degrades to the :class:`~repro.errors.ReproError`
    base; a ``retry_after_ms`` hint is restored onto the exception so
    retry policies can honor it.
    """
    message = info.get("message", "server error")
    exc_type = _TYPE_BY_NAME.get(info.get("type", ""))
    exc = exc_type(message) if exc_type is not None else ReproError(message)
    retry_after = info.get("retry_after_ms")
    if retry_after is not None:
        exc.retry_after_ms = float(retry_after)
    return exc


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """The structured error body for ``exc`` (taxonomy name + exit code)."""
    body: Dict[str, Any] = {
        "type": type(exc).__name__,
        "exit_code": exit_code_for(exc),
        "message": str(exc),
    }
    retry_after = getattr(exc, "retry_after_ms", None)
    if retry_after is not None:
        body["retry_after_ms"] = float(retry_after)
    return body


def _taxonomy_types() -> Dict[str, type]:
    import repro.errors as errors_mod

    return {
        name: obj
        for name, obj in vars(errors_mod).items()
        if isinstance(obj, type) and issubclass(obj, ReproError)
    }


_TYPE_BY_NAME = _taxonomy_types()


# -- line framing -------------------------------------------------------------


def encode_line(payload: Mapping[str, Any]) -> bytes:
    """One protocol line: compact JSON + ``\\n``, UTF-8."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; malformed input raises ConfigurationError.

    ``ValueError`` covers bad UTF-8, bad JSON and integers past Python's
    digit limit; ``RecursionError`` covers arrays nested past the stack.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"malformed protocol line: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"protocol line must be a JSON object, got {type(payload).__name__}"
        )
    return payload
