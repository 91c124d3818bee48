"""JSON (de)serialization for allocations and every experiment result.

A downstream user wants to solve once, persist the result, and replay or
audit it later; the experiment harness wants machine-readable outputs next
to the printed tables.  Formats are plain JSON with explicit versioning.

Two layers:

* the original allocation/metrics helpers (:func:`allocation_to_dict`,
  :func:`save_allocation`, …), kept verbatim for compatibility;
* a **codec registry** covering every scenario result type.  Each registered
  codec owns a ``kind`` tag and a ``format_version``;
  :func:`result_to_dict` dispatches on the object's type and
  :func:`result_from_dict` on the payload's ``kind``, so any registered
  experiment result — :class:`~repro.core.quhe.QuHEResult`, a Fig.-6
  :class:`~repro.experiments.fig6_sweeps.SweepSet`, a full
  :class:`~repro.experiments.report.ReportBundle` — round-trips losslessly::

      payload = result_to_dict(QuHE(cfg).solve())
      restored = result_from_dict(payload)        # a QuHEResult again

  New scenario result types plug in with :func:`register_codec`.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import dataclass
from io import BytesIO
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Type, Union

import numpy as np

from repro import faults as _faults
from repro.core.solution import Allocation, Metrics
from repro.errors import ArtifactError, TransientIOError

FORMAT_VERSION = 1

PathLike = Union[str, Path]


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Durably write ``text`` to ``path``: tmp + flush + fsync + ``os.replace``.

    The temp file lives in the target's directory so the final rename is a
    same-filesystem atomic replace — a reader never observes a partial file,
    and a crash mid-write leaves the previous content (or nothing) intact.

    This is also the ``artifact.write`` fault seam: under an active
    :mod:`repro.faults` plan a ``torn_write``/``truncate`` rule deliberately
    leaves a corrupt file at ``path`` (bypassing the atomic dance, the way a
    legacy non-atomic writer would after a crash) and raises
    :class:`~repro.errors.TransientIOError` so hardened callers retry.
    """
    target = Path(path)
    rule = _faults.fire("artifact.write")
    if rule is not None and rule.kind in ("torn_write", "truncate"):
        torn = "" if rule.kind == "truncate" else text[: max(1, len(text) // 2)]
        target.write_text(torn)
        raise TransientIOError(
            f"injected {rule.kind} while writing {target}"
        )
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def atomic_write_bytes(
    path: PathLike, data: bytes, *, fault_seam: str | None = "artifact.write"
) -> Path:
    """Binary sibling of :func:`atomic_write_text` (same ``artifact.write``
    fault seam, same tmp + fsync + ``os.replace`` dance).

    ``fault_seam=None`` opts the write out of fault injection *and* of the
    seam's deterministic RNG stream.  Rebuildable caches (the campaign's
    canonical npz chunks) need this: whether such a file is written or
    loaded may differ between a resumed and an uninterrupted run, and an
    optional write that consumed a draw would phase-shift every later
    ``artifact.write`` decision — breaking the resume byte-identity
    contract for runs under an active fault plan.
    """
    target = Path(path)
    rule = _faults.fire(fault_seam) if fault_seam is not None else None
    if rule is not None and rule.kind in ("torn_write", "truncate"):
        torn = b"" if rule.kind == "truncate" else data[: max(1, len(data) // 2)]
        target.write_bytes(torn)
        raise TransientIOError(
            f"injected {rule.kind} while writing {target}"
        )
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def allocation_to_dict(alloc: Allocation) -> Dict:
    """Allocation as a JSON-ready dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "allocation",
        "phi": alloc.phi.tolist(),
        "w": alloc.w.tolist(),
        "lam": [int(v) for v in alloc.lam],
        "p": alloc.p.tolist(),
        "b": alloc.b.tolist(),
        "f_c": alloc.f_c.tolist(),
        "f_s": alloc.f_s.tolist(),
        "T": None if alloc.T is None else float(alloc.T),
    }


def allocation_from_dict(data: Dict) -> Allocation:
    """Inverse of :func:`allocation_to_dict`, with format validation."""
    if data.get("kind") != "allocation":
        raise ValueError(f"not an allocation payload: kind={data.get('kind')!r}")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {version!r} (supported: {FORMAT_VERSION})"
        )
    required = ("phi", "w", "lam", "p", "b", "f_c", "f_s")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"allocation payload missing fields: {missing}")
    return Allocation(
        phi=np.asarray(data["phi"], dtype=float),
        w=np.asarray(data["w"], dtype=float),
        lam=np.asarray(data["lam"], dtype=float),
        p=np.asarray(data["p"], dtype=float),
        b=np.asarray(data["b"], dtype=float),
        f_c=np.asarray(data["f_c"], dtype=float),
        f_s=np.asarray(data["f_s"], dtype=float),
        T=data.get("T"),
    )


def metrics_to_dict(metrics: Metrics) -> Dict:
    """Metrics as a JSON-ready dictionary (per-node arrays included)."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "metrics",
        "u_qkd": metrics.u_qkd,
        "u_msl": metrics.u_msl,
        "total_delay_s": metrics.total_delay,
        "total_energy_j": metrics.total_energy,
        "objective": metrics.objective,
        "per_node": {
            "enc_delay": metrics.enc_delay.tolist(),
            "tr_delay": metrics.tr_delay.tolist(),
            "cmp_delay": metrics.cmp_delay.tolist(),
            "enc_energy": metrics.enc_energy.tolist(),
            "tr_energy": metrics.tr_energy.tolist(),
            "cmp_energy": metrics.cmp_energy.tolist(),
        },
    }


def metrics_from_dict(data: Dict) -> Metrics:
    """Inverse of :func:`metrics_to_dict`."""
    per_node = data["per_node"]
    return Metrics(
        u_qkd=float(data["u_qkd"]),
        u_msl=float(data["u_msl"]),
        enc_delay=np.asarray(per_node["enc_delay"], dtype=float),
        tr_delay=np.asarray(per_node["tr_delay"], dtype=float),
        cmp_delay=np.asarray(per_node["cmp_delay"], dtype=float),
        enc_energy=np.asarray(per_node["enc_energy"], dtype=float),
        tr_energy=np.asarray(per_node["tr_energy"], dtype=float),
        cmp_energy=np.asarray(per_node["cmp_energy"], dtype=float),
        total_delay=float(data["total_delay_s"]),
        total_energy=float(data["total_energy_j"]),
        objective=float(data["objective"]),
    )


def save_allocation(alloc: Allocation, path: PathLike, *, metrics: Optional[Metrics] = None) -> None:
    """Write an allocation (and optionally its metrics) to a JSON file."""
    payload: Dict = {"allocation": allocation_to_dict(alloc)}
    if metrics is not None:
        payload["metrics"] = metrics_to_dict(metrics)
    Path(path).write_text(json.dumps(payload, indent=2))


def load_allocation(path: PathLike) -> Allocation:
    """Read an allocation back from :func:`save_allocation` output."""
    payload = json.loads(Path(path).read_text())
    if "allocation" not in payload:
        raise ValueError(f"{path}: no 'allocation' object in file")
    return allocation_from_dict(payload["allocation"])


# ---------------------------------------------------------------------------
# Codec registry: one versioned schema per experiment result type.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultCodec:
    """Serialization rules for one result type."""

    kind: str
    cls: Type
    encode: Callable[[Any], Dict]
    decode: Callable[[Dict], Any]
    version: int = 1


_CODECS_BY_KIND: Dict[str, ResultCodec] = {}
_CODECS_BY_TYPE: Dict[Type, ResultCodec] = {}
_BUILTINS_REGISTERED = False


def register_codec(
    kind: str,
    cls: Type,
    encode: Callable[[Any], Dict],
    decode: Callable[[Dict], Any],
    *,
    version: int = 1,
) -> ResultCodec:
    """Register a (de)serializer for ``cls`` under the ``kind`` tag.

    ``encode`` returns the body fields only; ``kind`` and ``format_version``
    are stamped on by :func:`result_to_dict`.  ``decode`` receives the full
    payload (version already validated) and returns an instance of ``cls``.

    A new result type plugs in with one call (each ``kind`` and each type
    may be registered once per process):

    >>> from dataclasses import dataclass
    >>> @dataclass
    ... class DemoPoint:
    ...     x: float
    ...     y: float
    >>> codec = register_codec(
    ...     "demo_point", DemoPoint,
    ...     lambda p: {"x": p.x, "y": p.y},
    ...     lambda d: DemoPoint(x=d["x"], y=d["y"]))
    >>> payload = result_to_dict(DemoPoint(1.0, 2.0))
    >>> payload["kind"], payload["format_version"]
    ('demo_point', 1)
    >>> result_from_dict(payload)
    DemoPoint(x=1.0, y=2.0)
    """
    if kind in _CODECS_BY_KIND:
        raise ValueError(f"codec kind {kind!r} already registered")
    if cls in _CODECS_BY_TYPE:
        raise ValueError(f"codec for type {cls.__name__} already registered")
    codec = ResultCodec(kind=kind, cls=cls, encode=encode, decode=decode, version=version)
    _CODECS_BY_KIND[kind] = codec
    _CODECS_BY_TYPE[cls] = codec
    return codec


def registered_kinds() -> List[str]:
    """All codec kinds (built-ins registered on demand)."""
    _ensure_builtin_codecs()
    return sorted(_CODECS_BY_KIND)


def result_to_dict(obj: Any) -> Dict:
    """Serialize any registered result object to a JSON-ready payload.

    Dispatch is on the object's type; the payload carries the codec's
    ``kind`` tag and ``format_version`` so :func:`result_from_dict` can
    reverse it:

    >>> import numpy as np
    >>> from repro.core.solution import Allocation
    >>> alloc = Allocation(
    ...     phi=np.ones(2), w=np.ones(3), lam=np.array([1024.0, 2048.0]),
    ...     p=np.ones(2), b=np.ones(2), f_c=np.ones(2), f_s=np.ones(2), T=1.0)
    >>> payload = result_to_dict(alloc)
    >>> payload["kind"], payload["format_version"], payload["lam"]
    ('allocation', 1, [1024, 2048])
    >>> restored = result_from_dict(payload)
    >>> np.array_equal(restored.phi, alloc.phi)
    True
    """
    _ensure_builtin_codecs()
    codec = _CODECS_BY_TYPE.get(type(obj))
    if codec is None:
        raise TypeError(
            f"no codec registered for {type(obj).__name__}; "
            f"known kinds: {registered_kinds()}"
        )
    payload = codec.encode(obj)
    payload["kind"] = codec.kind
    payload["format_version"] = codec.version
    return payload


def result_from_dict(data: Dict) -> Any:
    """Inverse of :func:`result_to_dict`, dispatching on ``kind``.

    Unknown kinds and version mismatches are explicit errors, never silent
    misdecodes:

    >>> result_from_dict({"kind": "no_such_kind"})
    Traceback (most recent call last):
        ...
    ValueError: unknown result kind 'no_such_kind'; known kinds: [...]
    """
    _ensure_builtin_codecs()
    kind = data.get("kind")
    codec = _CODECS_BY_KIND.get(kind)
    if codec is None:
        raise ValueError(
            f"unknown result kind {kind!r}; known kinds: {registered_kinds()}"
        )
    version = data.get("format_version")
    if version != codec.version:
        raise ValueError(
            f"{kind}: unsupported format version {version!r} "
            f"(supported: {codec.version})"
        )
    return codec.decode(data)


def payload_text(payload: Dict) -> str:
    """The canonical text of a codec payload: sorted-key JSON.

    The serving caches store this text once per result and the daemon
    splices it verbatim into replies, so every copy of one result — the
    solved reply, each hit, each coalesced waiter, the cache row — is the
    same bytes by construction.
    """
    return json.dumps(payload, sort_keys=True)


def codec_version(kind: Any) -> Optional[int]:
    """The current ``format_version`` of codec ``kind`` (None if unknown)."""
    _ensure_builtin_codecs()
    codec = _CODECS_BY_KIND.get(kind)
    return None if codec is None else codec.version


def save_result(obj: Any, path: PathLike) -> Path:
    """Write any registered result object to a JSON file (atomically)."""
    return atomic_write_text(path, json.dumps(result_to_dict(obj), indent=2) + "\n")


def load_result(path: PathLike) -> Any:
    """Read back a result written by :func:`save_result`.

    Corrupt artifacts (truncated JSON, zero-byte files, wrong-kind payloads)
    raise :class:`~repro.errors.ArtifactError` naming the offending path.
    """
    source = Path(path)
    try:
        text = source.read_text()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ArtifactError(
            f"{source}: unreadable result artifact: {exc}", path=str(source)
        ) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        detail = "zero-byte file" if not text else f"invalid JSON ({exc})"
        raise ArtifactError(
            f"{source}: corrupt result artifact: {detail}", path=str(source)
        ) from exc
    try:
        return result_from_dict(payload)
    except ValueError as exc:
        raise ArtifactError(
            f"{source}: {exc}", path=str(source)
        ) from exc


# -- columnar npz artifacts ---------------------------------------------------
#
# ConfigBatch / SolutionBatch additionally serialize to uncompressed npz:
# each numeric column is one ZIP_STORED .npy member, so a reader can
# memory-map the raw float data straight out of the archive — no JSON
# parse, no copy.  A `__meta__` member carries the codec kind, format
# version and the non-numeric identity payload as a JSON string.


def save_batch_npz(obj: Any, path: PathLike) -> Path:
    """Write a columnar batch as an uncompressed npz artifact (atomically).

    Works for any registered codec type exposing ``to_arrays()`` (today:
    :class:`~repro.core.batch.ConfigBatch` and
    :class:`~repro.core.batch.SolutionBatch`).  The file is a standard npz —
    ``np.load`` reads it — but :func:`load_batch_npz` additionally
    memory-maps the columns zero-copy.
    """
    _ensure_builtin_codecs()
    codec = _CODECS_BY_TYPE.get(type(obj))
    if codec is None or not hasattr(obj, "to_arrays"):
        raise TypeError(
            f"no columnar codec for {type(obj).__name__}; "
            "expected ConfigBatch or SolutionBatch"
        )
    arrays, meta = obj.to_arrays()
    header = {"kind": codec.kind, "format_version": codec.version, "meta": meta}
    members = dict(arrays)
    members["__meta__"] = np.asarray(json.dumps(header, sort_keys=True))
    buffer = BytesIO()
    np.savez(buffer, **members)
    # Batch artifacts are rebuildable caches; see atomic_write_bytes for
    # why they must stay outside the artifact.write fault stream.
    return atomic_write_bytes(path, buffer.getvalue(), fault_seam=None)


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    return np.lib.format.read_array(
        BytesIO(archive.read(name)), allow_pickle=False
    )


def _memmap_member(
    path: Path, archive: zipfile.ZipFile, name: str
) -> Optional[np.ndarray]:
    """Map one ZIP_STORED .npy member directly from the file, or ``None``.

    The zip local file header gives the member's data offset; the npy
    header after it gives dtype/shape — everything np.memmap needs.  Any
    surprise (compressed member, object dtype, empty array, exotic npy
    version) returns ``None`` and the caller falls back to an eager read.
    """
    try:
        info = archive.getinfo(name)
        if info.compress_type != zipfile.ZIP_STORED:
            return None
        with open(path, "rb") as handle:
            handle.seek(info.header_offset)
            local = handle.read(30)
            if len(local) < 30 or local[:4] != b"PK\x03\x04":
                return None
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(
                    handle
                )
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(
                    handle
                )
            else:
                return None
            if dtype.hasobject or shape == () or 0 in shape:
                return None
            offset = handle.tell()
        return np.memmap(
            path,
            dtype=dtype,
            mode="r",
            offset=offset,
            shape=shape,
            order="F" if fortran else "C",
        )
    except Exception:
        return None


def load_batch_npz(path: PathLike, *, memmap: bool = True) -> Any:
    """Read back a batch written by :func:`save_batch_npz`.

    With ``memmap=True`` (the default) the numeric columns are
    ``np.memmap`` views into the file — the artifact streams without a
    parse or copy; pass ``memmap=False`` to materialize them in memory.
    Corrupt archives (truncated, zero-byte, missing meta) raise
    :class:`~repro.errors.ArtifactError` naming the offending path; version
    mismatches surface the same way as the JSON codecs.
    """
    _ensure_builtin_codecs()
    source = Path(path)
    try:
        archive = zipfile.ZipFile(source)
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError) as exc:
        raise ArtifactError(
            f"{source}: corrupt batch artifact: {exc}", path=str(source)
        ) from exc
    with archive:
        names = archive.namelist()
        if "__meta__.npy" not in names:
            raise ArtifactError(
                f"{source}: corrupt batch artifact: missing __meta__ member",
                path=str(source),
            )
        try:
            header_arr = _read_member(archive, "__meta__.npy")
            header = json.loads(str(header_arr[()]))
        except (ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise ArtifactError(
                f"{source}: corrupt batch artifact: bad __meta__ member "
                f"({exc})",
                path=str(source),
            ) from exc
        kind = header.get("kind")
        codec = _CODECS_BY_KIND.get(kind)
        if codec is None or not hasattr(codec.cls, "from_arrays"):
            raise ArtifactError(
                f"{source}: unknown batch kind {kind!r}; "
                f"known kinds: {registered_kinds()}",
                path=str(source),
            )
        version = header.get("format_version")
        if version != codec.version:
            raise ArtifactError(
                f"{source}: {kind}: unsupported format version {version!r} "
                f"(supported: {codec.version})",
                path=str(source),
            )
        arrays: Dict[str, np.ndarray] = {}
        try:
            for name in names:
                if name == "__meta__.npy":
                    continue
                key = name[:-4] if name.endswith(".npy") else name
                arr = _memmap_member(source, archive, name) if memmap else None
                if arr is None:
                    arr = _read_member(archive, name)
                arrays[key] = arr
        except (ValueError, zipfile.BadZipFile) as exc:
            raise ArtifactError(
                f"{source}: corrupt batch artifact: {exc}", path=str(source)
            ) from exc
    try:
        return codec.cls.from_arrays(arrays, header.get("meta", {}))
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(
            f"{source}: corrupt batch artifact: {exc}", path=str(source)
        ) from exc


# -- helpers -----------------------------------------------------------------


def _floats(values) -> List[float]:
    return [float(v) for v in values]


# -- built-in codecs ---------------------------------------------------------
#
# Registered lazily on first use: the experiment modules import solvers
# (scipy etc.) and some of them import repro.io themselves, so eager
# registration at module import time would create cycles.


def _ensure_builtin_codecs() -> None:
    global _BUILTINS_REGISTERED
    if _BUILTINS_REGISTERED:
        return
    before = set(_CODECS_BY_KIND)
    try:
        _register_builtin_codecs()
    except BaseException:
        # Roll back this call's partial registrations so the next caller
        # retries from a clean slate and sees the real import error, not a
        # misleading "no codec registered" message.
        for kind in set(_CODECS_BY_KIND) - before:
            codec = _CODECS_BY_KIND.pop(kind)
            _CODECS_BY_TYPE.pop(codec.cls, None)
        raise
    _BUILTINS_REGISTERED = True


def _register_builtin_codecs() -> None:
    from repro.core.batch import ConfigBatch, SolutionBatch
    from repro.core.quhe import QuHEResult
    from repro.core.stage1 import Stage1Result
    from repro.core.stage2 import Stage2Result
    from repro.core.stage3 import Stage3Result
    from repro.experiments.ablations import (
        AblationSuite,
        BnbAblation,
        ConvexificationAblation,
        TransformAblation,
        WeightPoint,
    )
    from repro.experiments.dynamic import DynamicStudy, EpochResult
    from repro.experiments.fig3_optimality import OptimalityStudy
    from repro.experiments.fig4_convergence import ConvergenceTraces
    from repro.experiments.fig5_comparison import (
        Fig5Bundle,
        MethodComparison,
        MethodRow,
        StageCallReport,
    )
    from repro.experiments.fig6_sweeps import SweepSeries, SweepSet
    from repro.experiments.report import ReportBundle
    from repro.experiments.tables import Stage1MethodComparison
    from repro.pipeline import PipelineReport
    from repro.sim.result import (
        AdaptiveSimStudy,
        RoutingCompareStudy,
        SimulationResult,
    )

    register_codec(
        "allocation",
        Allocation,
        lambda a: {k: v for k, v in allocation_to_dict(a).items()
                   if k not in ("kind", "format_version")},
        allocation_from_dict,
    )
    register_codec(
        "metrics",
        Metrics,
        lambda m: {k: v for k, v in metrics_to_dict(m).items()
                   if k not in ("kind", "format_version")},
        metrics_from_dict,
    )

    register_codec(
        "config_batch",
        ConfigBatch,
        lambda b: b.to_jsonable(),
        lambda d: ConfigBatch.from_jsonable(d),
    )
    register_codec(
        "solution_batch",
        SolutionBatch,
        lambda b: b.to_jsonable(),
        lambda d: SolutionBatch.from_jsonable(d),
    )
    register_codec(
        "stage1_result",
        Stage1Result,
        lambda r: {
            "phi": r.phi.tolist(),
            "w": r.w.tolist(),
            "value": float(r.value),
            "iterations": int(r.iterations),
            "runtime_s": float(r.runtime_s),
            "history": _floats(r.history),
            "converged": bool(r.converged),
        },
        lambda d: Stage1Result(
            phi=np.asarray(d["phi"], dtype=float),
            w=np.asarray(d["w"], dtype=float),
            value=d["value"],
            iterations=d["iterations"],
            runtime_s=d["runtime_s"],
            history=list(d["history"]),
            converged=d["converged"],
        ),
    )
    register_codec(
        "stage2_result",
        Stage2Result,
        lambda r: {
            "lam": [int(v) for v in r.lam],
            "T": float(r.T),
            "value": float(r.value),
            "nodes_explored": int(r.nodes_explored),
            "runtime_s": float(r.runtime_s),
            "history": _floats(r.history),
        },
        lambda d: Stage2Result(
            lam=np.asarray(d["lam"], dtype=float),
            T=d["T"],
            value=d["value"],
            nodes_explored=d["nodes_explored"],
            runtime_s=d["runtime_s"],
            history=list(d["history"]),
        ),
    )
    register_codec(
        "stage3_result",
        Stage3Result,
        lambda r: {
            "p": r.p.tolist(),
            "b": r.b.tolist(),
            "f_c": r.f_c.tolist(),
            "f_s": r.f_s.tolist(),
            "T": float(r.T),
            "value": float(r.value),
            "outer_iterations": int(r.outer_iterations),
            "runtime_s": float(r.runtime_s),
            "history": _floats(r.history),
            "transform_gap": _floats(r.transform_gap),
        },
        lambda d: Stage3Result(
            p=np.asarray(d["p"], dtype=float),
            b=np.asarray(d["b"], dtype=float),
            f_c=np.asarray(d["f_c"], dtype=float),
            f_s=np.asarray(d["f_s"], dtype=float),
            T=d["T"],
            value=d["value"],
            outer_iterations=d["outer_iterations"],
            runtime_s=d["runtime_s"],
            history=list(d["history"]),
            transform_gap=list(d["transform_gap"]),
        ),
    )
    register_codec(
        "quhe_result",
        QuHEResult,
        lambda r: {
            "allocation": allocation_to_dict(r.allocation),
            "metrics": metrics_to_dict(r.metrics),
            "objective_history": _floats(r.objective_history),
            "stage1": result_to_dict(r.stage1),
            "stage2": result_to_dict(r.stage2),
            "stage3": result_to_dict(r.stage3),
            "stage1_calls": int(r.stage1_calls),
            "stage2_calls": int(r.stage2_calls),
            "stage3_calls": int(r.stage3_calls),
            "outer_iterations": int(r.outer_iterations),
            "runtime_s": float(r.runtime_s),
            "converged": bool(r.converged),
            "degraded": bool(r.degraded),
        },
        lambda d: QuHEResult(
            allocation=allocation_from_dict(d["allocation"]),
            metrics=metrics_from_dict(d["metrics"]),
            objective_history=list(d["objective_history"]),
            stage1=result_from_dict(d["stage1"]),
            stage2=result_from_dict(d["stage2"]),
            stage3=result_from_dict(d["stage3"]),
            stage1_calls=d["stage1_calls"],
            stage2_calls=d["stage2_calls"],
            stage3_calls=d["stage3_calls"],
            outer_iterations=d["outer_iterations"],
            runtime_s=d["runtime_s"],
            converged=d["converged"],
            # Absent in pre-robustness artifacts: same format version, the
            # primary path was the only path then.
            degraded=d.get("degraded", False),
        ),
    )

    register_codec(
        "stage1_method_comparison",
        Stage1MethodComparison,
        lambda c: {
            "results": {name: result_to_dict(res) for name, res in c.results.items()}
        },
        lambda d: Stage1MethodComparison(
            results={name: result_from_dict(res) for name, res in d["results"].items()}
        ),
    )
    register_codec(
        "optimality_study",
        OptimalityStudy,
        lambda s: {
            "values": s.values.tolist(),
            "bin_edges": [[float(lo), float(hi)] for lo, hi in s.bin_edges],
            "bin_counts": [int(c) for c in s.bin_counts],
        },
        lambda d: OptimalityStudy(
            values=np.asarray(d["values"], dtype=float),
            bin_edges=tuple((lo, hi) for lo, hi in d["bin_edges"]),
            bin_counts=list(d["bin_counts"]),
        ),
    )
    register_codec(
        "convergence_traces",
        ConvergenceTraces,
        lambda t: {
            "stage1_objective": _floats(t.stage1_objective),
            "stage2_incumbent": _floats(t.stage2_incumbent),
            "stage3_objective": _floats(t.stage3_objective),
            "stage3_gap": _floats(t.stage3_gap),
            "stage1_iterations": int(t.stage1_iterations),
            "stage2_nodes": int(t.stage2_nodes),
            "stage3_iterations": int(t.stage3_iterations),
            "outer_iterations": int(t.outer_iterations),
            "total_runtime_s": float(t.total_runtime_s),
        },
        lambda d: ConvergenceTraces(
            stage1_objective=list(d["stage1_objective"]),
            stage2_incumbent=list(d["stage2_incumbent"]),
            stage3_objective=list(d["stage3_objective"]),
            stage3_gap=list(d["stage3_gap"]),
            stage1_iterations=d["stage1_iterations"],
            stage2_nodes=d["stage2_nodes"],
            stage3_iterations=d["stage3_iterations"],
            outer_iterations=d["outer_iterations"],
            total_runtime_s=d["total_runtime_s"],
        ),
    )
    register_codec(
        "stage_call_report",
        StageCallReport,
        lambda r: {
            "stage1_calls": int(r.stage1_calls),
            "stage2_calls": int(r.stage2_calls),
            "stage3_calls": int(r.stage3_calls),
            "runtime_s": float(r.runtime_s),
        },
        lambda d: StageCallReport(
            stage1_calls=d["stage1_calls"],
            stage2_calls=d["stage2_calls"],
            stage3_calls=d["stage3_calls"],
            runtime_s=d["runtime_s"],
        ),
    )
    register_codec(
        "method_comparison",
        MethodComparison,
        lambda c: {
            "rows": [
                {
                    "method": r.method,
                    "energy_j": float(r.energy_j),
                    "delay_s": float(r.delay_s),
                    "u_msl": float(r.u_msl),
                    "objective": float(r.objective),
                }
                for r in c.rows
            ]
        },
        lambda d: MethodComparison(rows=[MethodRow(**row) for row in d["rows"]]),
    )
    register_codec(
        "fig5_bundle",
        Fig5Bundle,
        lambda b: {
            "stage_calls": result_to_dict(b.stage_calls),
            "stage1_methods": result_to_dict(b.stage1_methods),
            "methods": result_to_dict(b.methods),
        },
        lambda d: Fig5Bundle(
            stage_calls=result_from_dict(d["stage_calls"]),
            stage1_methods=result_from_dict(d["stage1_methods"]),
            methods=result_from_dict(d["methods"]),
        ),
    )
    register_codec(
        "sweep_series",
        SweepSeries,
        lambda s: {
            "parameter": s.parameter,
            "x_values": s.x_values.tolist(),
            "objectives": {m: _floats(v) for m, v in s.objectives.items()},
        },
        lambda d: SweepSeries(
            parameter=d["parameter"],
            x_values=np.asarray(d["x_values"], dtype=float),
            objectives={m: list(v) for m, v in d["objectives"].items()},
        ),
    )
    register_codec(
        "sweep_set",
        SweepSet,
        lambda s: {
            "panels": {name: result_to_dict(series) for name, series in s.panels.items()}
        },
        lambda d: SweepSet(
            panels={
                name: result_from_dict(series) for name, series in d["panels"].items()
            }
        ),
    )
    register_codec(
        "ablation_suite",
        AblationSuite,
        lambda s: {
            "bnb": {
                "bnb_value": float(s.bnb.bnb_value),
                "exhaustive_value": float(s.bnb.exhaustive_value),
                "bnb_nodes": int(s.bnb.bnb_nodes),
                "exhaustive_nodes": int(s.bnb.exhaustive_nodes),
                "identical_argmax": bool(s.bnb.identical_argmax),
            },
            "transform": {
                "transform_value": float(s.transform.transform_value),
                "direct_value": float(s.transform.direct_value),
                "transform_runtime_s": float(s.transform.transform_runtime_s),
                "direct_runtime_s": float(s.transform.direct_runtime_s),
            },
            "weights": [
                {
                    "alpha_msl": float(p.alpha_msl),
                    "lam": [int(v) for v in p.lam],
                    "u_msl": float(p.u_msl),
                    "total_energy": float(p.total_energy),
                    "objective": float(p.objective),
                }
                for p in s.weights
            ],
            "activation_threshold": float(s.activation_threshold),
            "convexification": {
                "log_space_value": float(s.convexification.log_space_value),
                "raw_space_value": float(s.convexification.raw_space_value),
                "raw_space_converged": bool(s.convexification.raw_space_converged),
            },
        },
        lambda d: AblationSuite(
            bnb=BnbAblation(**d["bnb"]),
            transform=TransformAblation(**d["transform"]),
            weights=[
                WeightPoint(
                    alpha_msl=p["alpha_msl"],
                    lam=np.asarray(p["lam"], dtype=float),
                    u_msl=p["u_msl"],
                    total_energy=p["total_energy"],
                    objective=p["objective"],
                )
                for p in d["weights"]
            ],
            activation_threshold=d["activation_threshold"],
            convexification=ConvexificationAblation(**d["convexification"]),
        ),
    )
    register_codec(
        "dynamic_study",
        DynamicStudy,
        lambda s: {
            "epochs": [
                {
                    "epoch": int(e.epoch),
                    "gains": e.gains.tolist(),
                    "adaptive_objective": float(e.adaptive_objective),
                    "static_objective": float(e.static_objective),
                }
                for e in s.epochs
            ],
            "baseline_allocation": allocation_to_dict(s.baseline_allocation),
        },
        lambda d: DynamicStudy(
            epochs=[
                EpochResult(
                    epoch=e["epoch"],
                    gains=np.asarray(e["gains"], dtype=float),
                    adaptive_objective=e["adaptive_objective"],
                    static_objective=e["static_objective"],
                )
                for e in d["epochs"]
            ],
            baseline_allocation=allocation_from_dict(d["baseline_allocation"]),
        ),
    )
    register_codec(
        "pipeline_report",
        PipelineReport,
        lambda r: {
            "client_index": int(r.client_index),
            "qkd_key_bytes": int(r.qkd_key_bytes),
            "uplink_bits": float(r.uplink_bits),
            "uplink_delay_s": float(r.uplink_delay_s),
            "uplink_energy_j": float(r.uplink_energy_j),
            "prediction": np.asarray(r.prediction, dtype=float).tolist(),
            "plaintext_reference": np.asarray(
                r.plaintext_reference, dtype=float
            ).tolist(),
        },
        lambda d: PipelineReport(
            client_index=d["client_index"],
            qkd_key_bytes=d["qkd_key_bytes"],
            uplink_bits=d["uplink_bits"],
            uplink_delay_s=d["uplink_delay_s"],
            uplink_energy_j=d["uplink_energy_j"],
            prediction=np.asarray(d["prediction"], dtype=float),
            plaintext_reference=np.asarray(d["plaintext_reference"], dtype=float),
        ),
    )
    register_codec(
        "simulation_result",
        SimulationResult,
        lambda r: {
            "duration_s": float(r.duration_s),
            "seed": int(r.seed),
            "allocated_phi": _floats(r.allocated_phi),
            "allocated_key_rate": _floats(r.allocated_key_rate),
            "demand_rate": _floats(r.demand_rate),
            "sample_times": _floats(r.sample_times),
            "buffer_bits": [_floats(row) for row in r.buffer_bits],
            "delivered_bits_series": [
                _floats(row) for row in r.delivered_bits_series
            ],
            "shortfall_bits_series": [
                _floats(row) for row in r.shortfall_bits_series
            ],
            "pairs_generated": [int(v) for v in r.pairs_generated],
            "pairs_delivered": [int(v) for v in r.pairs_delivered],
            "pairs_dropped": [int(v) for v in r.pairs_dropped],
            "delivered_bits": _floats(r.delivered_bits),
            "demand_bits": _floats(r.demand_bits),
            "served_bits": _floats(r.served_bits),
            "shortfall_bits": _floats(r.shortfall_bits),
            "expected_key_bits": float(r.expected_key_bits),
            "outages": [_floats(entry) for entry in r.outages],
            "reopt_times": _floats(r.reopt_times),
            "reopt_failures": int(r.reopt_failures),
            "events_processed": int(r.events_processed),
            "wall_time_s": float(r.wall_time_s),
            "trace_digest": str(r.trace_digest),
            "reroutes": [_floats(entry) for entry in r.reroutes],
            "pairs_flushed": [int(v) for v in r.pairs_flushed],
            "final_route_links": [
                [int(l) for l in row] for row in r.final_route_links
            ],
        },
        lambda d: SimulationResult(
            duration_s=d["duration_s"],
            seed=d["seed"],
            allocated_phi=list(d["allocated_phi"]),
            allocated_key_rate=list(d["allocated_key_rate"]),
            demand_rate=list(d["demand_rate"]),
            sample_times=list(d["sample_times"]),
            buffer_bits=[list(row) for row in d["buffer_bits"]],
            delivered_bits_series=[
                list(row) for row in d["delivered_bits_series"]
            ],
            shortfall_bits_series=[
                list(row) for row in d["shortfall_bits_series"]
            ],
            pairs_generated=list(d["pairs_generated"]),
            pairs_delivered=list(d["pairs_delivered"]),
            pairs_dropped=list(d["pairs_dropped"]),
            delivered_bits=list(d["delivered_bits"]),
            demand_bits=list(d["demand_bits"]),
            served_bits=list(d["served_bits"]),
            shortfall_bits=list(d["shortfall_bits"]),
            expected_key_bits=d["expected_key_bits"],
            outages=[list(entry) for entry in d["outages"]],
            reopt_times=list(d["reopt_times"]),
            reopt_failures=d["reopt_failures"],
            events_processed=d["events_processed"],
            wall_time_s=d["wall_time_s"],
            trace_digest=d["trace_digest"],
            # pre-routing artifacts lack the routing fields
            reroutes=[list(entry) for entry in d.get("reroutes", [])],
            pairs_flushed=list(d.get("pairs_flushed", [])),
            final_route_links=[
                list(row) for row in d.get("final_route_links", [])
            ],
        ),
    )
    register_codec(
        "adaptive_sim_study",
        AdaptiveSimStudy,
        lambda s: {
            "adaptive": result_to_dict(s.adaptive),
            "static": result_to_dict(s.static),
        },
        lambda d: AdaptiveSimStudy(
            adaptive=result_from_dict(d["adaptive"]),
            static=result_from_dict(d["static"]),
        ),
    )
    register_codec(
        "routing_compare_study",
        RoutingCompareStudy,
        lambda s: {
            "proactive": result_to_dict(s.proactive),
            "reactive": result_to_dict(s.reactive),
            "static": result_to_dict(s.static),
        },
        lambda d: RoutingCompareStudy(
            proactive=result_from_dict(d["proactive"]),
            reactive=result_from_dict(d["reactive"]),
            static=result_from_dict(d["static"]),
        ),
    )
    from repro.campaign.result import CampaignResult, GridPointAggregate

    register_codec(
        "campaign_result",
        CampaignResult,
        lambda r: {
            "name": r.name,
            "scenario": r.scenario,
            "base": dict(r.base),
            "axes": {name: list(values) for name, values in r.axes.items()},
            "seeds": [int(s) for s in r.seeds],
            "backend": r.backend,
            "cells_total": int(r.cells_total),
            "cells_completed": int(r.cells_completed),
            "cells_failed": int(r.cells_failed),
            "failed_cell_ids": [str(c) for c in r.failed_cell_ids],
            "points": [
                {
                    "params": dict(p.params),
                    "metrics": {
                        name: {k: v for k, v in stats.items()}
                        for name, stats in p.metrics.items()
                    },
                }
                for p in r.points
            ],
        },
        lambda d: CampaignResult(
            name=d["name"],
            scenario=d["scenario"],
            base=dict(d["base"]),
            axes={name: list(values) for name, values in d["axes"].items()},
            seeds=[int(s) for s in d["seeds"]],
            backend=d["backend"],
            cells_total=d["cells_total"],
            cells_completed=d["cells_completed"],
            # Absent in pre-quarantine artifacts: no cell could fail
            # survivably then, so zero is the faithful reading.
            cells_failed=d.get("cells_failed", 0),
            failed_cell_ids=list(d.get("failed_cell_ids", [])),
            points=[
                GridPointAggregate(
                    params=dict(p["params"]),
                    metrics={name: dict(stats)
                             for name, stats in p["metrics"].items()},
                )
                for p in d["points"]
            ],
        ),
    )
    register_codec(
        "fault_plan",
        _faults.FaultPlan,
        lambda p: p.to_dict(),
        _faults.FaultPlan.from_dict,
    )
    register_codec(
        "report_bundle",
        ReportBundle,
        lambda b: {
            "seed": int(b.seed),
            "fig3_samples": int(b.fig3_samples),
            "stage1_methods": result_to_dict(b.stage1_methods),
            "optimality": result_to_dict(b.optimality),
            "convergence": result_to_dict(b.convergence),
            "stage_calls": result_to_dict(b.stage_calls),
            "methods": result_to_dict(b.methods),
            "sweeps": result_to_dict(b.sweeps),
        },
        lambda d: ReportBundle(
            seed=d["seed"],
            fig3_samples=d["fig3_samples"],
            stage1_methods=result_from_dict(d["stage1_methods"]),
            optimality=result_from_dict(d["optimality"]),
            convergence=result_from_dict(d["convergence"]),
            stage_calls=result_from_dict(d["stage_calls"]),
            methods=result_from_dict(d["methods"]),
            sweeps=result_from_dict(d["sweeps"]),
        ),
    )
    import dataclasses

    from repro.serve.bench import ServeBenchResult
    from repro.serve.protocol import ServeRequest, ServeResponse

    register_codec(
        "serve_request",
        ServeRequest,
        lambda r: r.to_dict(),
        ServeRequest.from_dict,
    )
    register_codec(
        "serve_response",
        ServeResponse,
        lambda r: r.to_dict(),
        ServeResponse.from_dict,
    )
    register_codec(
        "serve_bench_result",
        ServeBenchResult,
        dataclasses.asdict,
        lambda d: ServeBenchResult(**{
            k: v for k, v in d.items()
            if k not in ("kind", "format_version")
        }),
    )
