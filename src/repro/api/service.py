"""`SolverService`: the cached, batched front-door to the QuHE solver.

Every surface (CLI, examples, benchmarks, future RPC layers) goes through
one object instead of constructing :class:`~repro.core.quhe.QuHE` by hand:

* **config-hash caching** — :func:`config_fingerprint` derives a stable
  SHA-256 from every constant of a :class:`~repro.core.config.SystemConfig`
  (nested dataclasses, numpy arrays, and cost-curve callables included), so
  re-solving an identical configuration returns the cached
  :class:`~repro.core.quhe.QuHEResult` object without touching the solver;
* **batching** — :meth:`SolverService.solve_many` fans independent configs
  out over a process pool (:func:`repro.utils.parallel.parallel_map`),
  deduplicates identical configs, preserves input order, and produces
  results identical to the serial loop;
* **progress callbacks** — ``progress(done, total)`` fires as batch items
  complete, for long sweeps driven from a UI or logger.

Example::

    from repro.api import SolverService
    from repro.core.config import paper_config

    service = SolverService()
    result = service.solve(paper_config(seed=2))      # solved
    again = service.solve(paper_config(seed=2))       # cache hit, same object
    sweep = service.solve_many(
        [paper_config(seed=s) for s in range(8)], workers=4
    )
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from collections import Counter, OrderedDict
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro import faults as _faults
from repro.core.batch import ConfigBatch, SolutionBatch
from repro.core.batched import BatchedQuHE
from repro.core.config import SystemConfig
from repro.core.quhe import QuHE, QuHEResult
from repro.core.solution import Allocation
from repro.errors import ArtifactError, SolverError
from repro.quantum.topology import QKDNetwork
from repro.utils.parallel import ProgressCallback, parallel_map

__all__ = [
    "FingerprintError",
    "LRUResultCache",
    "SolverService",
    "config_fingerprint",
    "canonical_config_dict",
    "resolve_backend",
]

#: Recognised ``solve_many`` backends (besides the "auto" selector).
BACKENDS = ("batched", "pool", "serial")


def resolve_backend(backend: str, workers: Optional[int]) -> str:
    """Map a requested backend (possibly ``"auto"``) to a concrete one.

    ``auto`` picks the vectorized in-process batch on machines with ≤ 2
    cores — where a process pool is pure overhead (fork + pickle + import
    cost with no parallelism to buy; see ``BENCH_solver.json``'s
    ``workers=2`` row on a 1-core container) — and otherwise honours a
    ``workers > 1`` request with the pool.  Without a worker request the
    batched backend wins on any core count: one process, no serialization.
    """
    if backend != "auto":
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from "
                f"{('auto',) + BACKENDS}"
            )
        return backend
    if workers is not None and workers > 1 and (os.cpu_count() or 1) > 2:
        return "pool"
    return "batched"


class FingerprintError(ValueError):
    """The configuration contains something with no stable identity.

    Raised for closure/lambda cost curves: their only runtime identity is a
    memory address, which CPython reuses after garbage collection, so
    hashing it could silently alias two different configurations.  The
    service treats such configs as uncacheable instead.
    """


def _canonical(value: Any) -> Any:
    """Recursively convert ``value`` into a JSON-stable structure."""
    if isinstance(value, QKDNetwork):
        # Not a dataclass (it carries a networkx graph); its identity is
        # fully determined by links + routes + key centre.
        return {
            "__type__": "QKDNetwork",
            "links": [_canonical(link) for link in value.links],
            "routes": [_canonical(route) for route in value.routes],
            "key_center": value.key_center,
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__type__": type(value).__qualname__, **fields}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if callable(value):
        # Cost-model curves: module-level functions have a stable qualified
        # name.  Closures and lambdas do not — refuse rather than hash a
        # reusable memory address.
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if (
            module and qualname
            and "<locals>" not in qualname and "<lambda>" not in qualname
        ):
            return f"{module}.{qualname}"
        raise FingerprintError(
            f"cannot fingerprint callable {value!r}: closures/lambdas have "
            "no stable identity (use a module-level function to enable "
            "result caching)"
        )
    return value


def canonical_config_dict(config: SystemConfig) -> Dict[str, Any]:
    """A JSON-ready canonical view of every constant in ``config``."""
    return _canonical(config)


def config_fingerprint(config: SystemConfig) -> str:
    """Stable SHA-256 hex digest of a configuration's constants.

    Raises :class:`FingerprintError` when the config holds anything without
    a stable serializable identity (closures, duck-typed components); the
    service then solves it uncached instead of crashing.

    Two structurally identical configurations fingerprint identically;
    any changed constant (here: the channel seed) changes the digest:

    >>> from repro.core.config import paper_config
    >>> config_fingerprint(paper_config(seed=2)) == config_fingerprint(
    ...     paper_config(seed=2))
    True
    >>> config_fingerprint(paper_config(seed=2)) == config_fingerprint(
    ...     paper_config(seed=3))
    False
    >>> len(config_fingerprint(paper_config(seed=2)))
    64
    """
    try:
        blob = json.dumps(canonical_config_dict(config), sort_keys=True)
    except TypeError as exc:
        raise FingerprintError(
            f"cannot fingerprint config: {exc} (custom component without a "
            "JSON-stable identity; the solve will run uncached)"
        ) from exc
    return hashlib.sha256(blob.encode()).hexdigest()


def _degraded_solve(
    config: SystemConfig, initial: Optional[Allocation] = None
) -> QuHEResult:
    """The graceful-degradation path: re-solve with the SLSQP reference.

    Invoked when the primary IPM inner engine raises
    :class:`~repro.errors.SolverError` (singular Newton system, non-finite
    objective, or an injected fault).  The scalar SLSQP formulation is an
    independent implementation of the same convex subproblem, so a sweep
    survives one pathological configuration; the result is marked
    ``degraded=True`` so artifacts and reports show which path produced it.
    """
    from repro.core.stage3 import Stage3Solver

    solver = QuHE(config, stage3_solver=Stage3Solver(config, inner="slsqp"))
    return dataclasses.replace(solver.solve(initial), degraded=True)


def _result_text(result: QuHEResult) -> str:
    from repro import io as repro_io

    return repro_io.payload_text(repro_io.result_to_dict(result))


def _solve_config(config: SystemConfig) -> QuHEResult:
    """One full QuHE solve (module-level: picklable for process pools).

    This is the ``worker.solve`` fault seam (it executes inside pool worker
    processes for the pool backend, in-process otherwise), and the seat of
    solver degradation: an IPM :class:`~repro.errors.SolverError` falls back
    to :func:`_degraded_solve` instead of crashing the sweep.
    """
    _faults.fire("worker.solve")
    try:
        return QuHE(config).solve()
    except SolverError:
        return _degraded_solve(config)


def _solve_config_warm(task) -> QuHEResult:
    """A (config, initial-allocation) solve, picklable for process pools."""
    config, initial = task
    _faults.fire("worker.solve")
    try:
        return QuHE(config).solve(initial)
    except SolverError:
        return _degraded_solve(config, initial)


class LRUResultCache:
    """The default in-memory result-cache backend: a bounded LRU dict.

    This is the reference implementation of the pluggable cache-backend
    protocol :class:`SolverService` speaks — three methods plus a
    ``capacity`` attribute::

        get(key) -> Optional[QuHEResult]   # None on miss
        put(key, result) -> None           # may evict
        clear() -> None
        len(backend) -> int                # current entry count

    Backends that serve the ``repro serve`` daemon also speak the text
    extension — ``get_text(key)`` returning the result's canonical text
    (:func:`repro.io.payload_text`) and ``put_payload(key, payload, *,
    text, result)`` — so hits splice stored text instead of re-encoding an
    object.  Here the text is memoized next to the object: handed in by
    ``put_payload`` or encoded on the first ``get_text`` probe; ``get``
    still returns the object itself, with no decode.

    Alternative backends (e.g. the sqlite-backed
    :class:`repro.serve.cache.SqliteResultCache`, shared across worker
    processes) plug into ``SolverService(cache=...)`` unchanged.  Backends
    need not be thread-safe: the service serializes access under its own
    lock.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, QuHEResult]" = OrderedDict()
        self._texts: Dict[str, str] = {}

    def get(self, key: str) -> Optional[QuHEResult]:
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
        return result

    def get_text(self, key: str) -> Optional[str]:
        result = self.get(key)
        if result is None:
            return None
        text = self._texts.get(key)
        if text is None:
            text = self._texts[key] = _result_text(result)
        return text

    def put(self, key: str, result: QuHEResult) -> None:
        self._store(key, result, None)

    def put_payload(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        text: Optional[str] = None,
        result: Optional[QuHEResult] = None,
    ) -> None:
        if result is None:
            from repro import io as repro_io

            result = repro_io.result_from_dict(payload)
        self._store(key, result, text)

    def _store(
        self, key: str, result: QuHEResult, text: Optional[str]
    ) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = result
        self._entries.move_to_end(key)
        if text is None:
            self._texts.pop(key, None)
        else:
            self._texts[key] = text
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._texts.pop(evicted, None)

    def clear(self) -> None:
        self._entries.clear()
        self._texts.clear()

    def __len__(self) -> int:
        return len(self._entries)


class SolverService:
    """Front-door to QuHE with result caching and batch fan-out.

    ``cache`` swaps the result-cache backend (any object with the
    :class:`LRUResultCache` protocol); by default an in-memory LRU of
    ``cache_size`` entries.  All cache access — :meth:`solve` lookups,
    :meth:`prime`, counter updates — is serialized under one reentrant
    lock, so a service instance may be shared between an event loop and
    pool/executor callbacks (the ``repro serve`` daemon does exactly that).
    """

    def __init__(self, *, cache_size: int = 64, cache: Optional[Any] = None) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self._cache = cache if cache is not None else LRUResultCache(cache_size)
        self.cache_size = int(getattr(self._cache, "capacity", cache_size))
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
        #: The concrete backend used by the most recent :meth:`solve_many`
        #: (recorded into :class:`~repro.api.artifacts.RunRecord`).
        self.last_backend: Optional[str] = None
        # Persistent batch solver: its Stage-1 dedup cache survives across
        # calls, so repeated sweeps over one network skip the convex solve.
        self._batched = BatchedQuHE()

    def consume_last_backend(self) -> Optional[str]:
        """Return and clear the backend chosen by the last batch solve."""
        backend, self.last_backend = self.last_backend, None
        return backend

    # -- cache plumbing -----------------------------------------------------

    @property
    def cache_backend(self) -> Any:
        """The live cache backend (default: :class:`LRUResultCache`)."""
        return self._cache

    def cache_info(self) -> Dict[str, int]:
        """``{"hits", "misses", "coalesced", "size"}`` counters.

        ``coalesced`` counts requests that piggy-backed on another identical
        solve instead of running their own: duplicate configs inside one
        :meth:`solve_many` batch, plus any in-flight merges an outer serving
        layer reports via :meth:`note_coalesced`.
        """
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "coalesced": self._coalesced,
                "size": len(self._cache),
            }

    def note_coalesced(self, n: int = 1) -> None:
        """Record ``n`` requests served by piggy-backing on an in-flight solve.

        Called by serving layers (``repro.serve``) that merge concurrent
        identical requests *before* they reach the solver, so the
        ``coalesced`` counter reflects every avoided solve regardless of
        which layer avoided it.
        """
        with self._lock:
            self._coalesced += int(n)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def prime(self, config: SystemConfig, result: QuHEResult) -> str:
        """Install ``result`` as the cached solve of ``config``.

        The campaign runner solves its cells' baseline configurations in
        *canonical batches* (fixed composition derived from the campaign
        manifest, independent of cache state) so a resumed campaign
        reproduces an uninterrupted run bit for bit; ``prime`` then makes
        those canonical results the ones every subsequent
        :meth:`solve` of the same configuration returns.  Overwrites any
        existing entry and counts as neither hit nor miss.  Returns the
        fingerprint under which the result was cached.

        Raises :class:`FingerprintError` for unfingerprintable configs
        (nothing can be primed for a config the cache cannot key).
        """
        key = config_fingerprint(config)
        with self._lock:
            self._cache.put(key, result)
        return key

    def cache_lookup(self, key: str) -> Optional[QuHEResult]:
        """Probe the result cache by fingerprint (counts a hit or miss).

        The public face of the cache for serving layers that compute the
        fingerprint themselves (the ``repro serve`` daemon resolves specs to
        fingerprints once and reuses them for coalescing, cache probes and
        batching).
        """
        return self._cache_get(key)

    def cache_lookup_text(self, key: str) -> Optional[str]:
        """Probe the result cache for a result's canonical text.

        Counts a hit or miss exactly like :meth:`cache_lookup`; the text
        is :func:`repro.io.payload_text` of the result's codec payload, as
        stored by a text-capable backend (both built-in backends are) or
        encoded here for any other.  A stored row that fails its integrity
        checks raises :class:`~repro.errors.ArtifactError` and is booked as
        a miss — the caller re-solves.
        """
        with self._lock:
            get_text = getattr(self._cache, "get_text", None)
            try:
                if get_text is not None:
                    text = get_text(key)
                else:
                    result = self._cache.get(key)
                    text = None if result is None else _result_text(result)
            except ArtifactError:
                self._misses += 1
                raise
            if text is not None:
                self._hits += 1
            else:
                self._misses += 1
            return text

    def cache_store_payload(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        text: Optional[str] = None,
        result: Optional[QuHEResult] = None,
    ) -> None:
        """Install a ``quhe_result`` codec payload under ``key``.

        The write-side counterpart of :meth:`cache_lookup_text` for serving
        layers, which encode each result once and reply with that text.
        ``text`` (the payload's :func:`repro.io.payload_text`) and
        ``result`` (the decoded object) are passed when the caller holds
        them: a text-capable backend stores the text verbatim — what the
        daemon answered is what later hits replay — and keeps the object
        where it keeps objects; other backends get the object, decoded from
        ``payload`` if not given.  Counts as neither hit nor miss.
        """
        backend = self._cache
        with self._lock:
            put_payload = getattr(backend, "put_payload", None)
            if put_payload is not None:
                put_payload(key, payload, text=text, result=result)
            else:
                if result is None:
                    from repro import io as repro_io

                    result = repro_io.result_from_dict(payload)
                backend.put(key, result)

    def cache_discard(self, key: str) -> None:
        """Drop ``key`` from a backend that can hold bad rows (``discard``)."""
        discard = getattr(self._cache, "discard", None)
        with self._lock:
            if discard is not None:
                discard(key)

    def _cache_get(self, key: str) -> Optional[QuHEResult]:
        with self._lock:
            result = self._cache.get(key)
            if result is not None:
                self._hits += 1
            else:
                self._misses += 1
            return result

    def _cache_peek(self, key: str) -> Optional[QuHEResult]:
        """Probe the cache without touching the hit/miss counters.

        Serving layers that already accounted a request via
        :meth:`cache_lookup` retry the probe inside the batch solve; a
        second counted probe would double-book the same logical request
        (``count_cache_stats=False`` in :meth:`solve_many` /
        :meth:`solve_batch` routes here instead).
        """
        with self._lock:
            return self._cache.get(key)

    def _cache_put(self, key: str, result: QuHEResult) -> None:
        with self._lock:
            self._cache.put(key, result)

    # -- solving ------------------------------------------------------------

    def solve(
        self,
        config: SystemConfig,
        *,
        initial: Optional[Allocation] = None,
        use_cache: bool = True,
    ) -> QuHEResult:
        """Solve one configuration (cached on the config fingerprint).

        A custom ``initial`` allocation bypasses the cache in both
        directions: the warm start can change the trajectory, so its result
        neither reads from nor populates the fingerprint cache.

        Re-solving a fingerprint-identical config returns the cached
        result object without touching the solver:

        >>> from repro.core.config import paper_config
        >>> service = SolverService()
        >>> result = service.solve(paper_config(seed=2))
        >>> result.converged
        True
        >>> service.solve(paper_config(seed=2)) is result
        True
        >>> service.cache_info()
        {'hits': 1, 'misses': 1, 'coalesced': 0, 'size': 1}
        """
        if initial is not None:
            try:
                return QuHE(config).solve(initial)
            except SolverError:
                return _degraded_solve(config, initial)
        try:
            key = config_fingerprint(config)
        except FingerprintError:
            return _solve_config(config)
        if use_cache:
            cached = self._cache_get(key)
            if cached is not None:
                return cached
        result = _solve_config(config)
        if use_cache:
            self._cache_put(key, result)
        return result

    def solve_many(
        self,
        configs: Sequence[SystemConfig],
        *,
        backend: str = "auto",
        workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        use_cache: bool = True,
        initials: Optional[Sequence[Optional[Allocation]]] = None,
        count_cache_stats: bool = True,
        store_results: bool = True,
    ) -> List[QuHEResult]:
        """Solve a batch of configurations through the chosen backend.

        ``count_cache_stats=False`` makes cache probes and in-batch dedup
        invisible to :meth:`cache_info` — for callers (the serve daemon)
        that already counted each logical request at their own boundary and
        would otherwise book the same request twice.  ``store_results=False``
        still reads the cache but leaves storing the fresh solves to the
        caller (the daemon stores each result with the text it encoded for
        its reply, via :meth:`cache_store_payload`).

        ``backend`` is one of ``"batched"`` (stack all pending configs into
        one vectorized :class:`~repro.core.batched.BatchedQuHE` pass),
        ``"pool"`` (fan out over ``workers`` processes), ``"serial"`` (plain
        loop), or ``"auto"`` — which picks ``batched`` on machines with ≤ 2
        cores (where a pool is pure overhead) and otherwise honours a
        ``workers > 1`` request with the pool.  The concrete choice is
        recorded in :attr:`last_backend`.

        Results come back in input order; the batched backend agrees with
        the serial loop within 1e-9 on the objective (identical λ), the
        pool bit-for-bit.  Fingerprint-identical configs are solved once;
        cached entries skip the solve entirely.  ``progress(done, total)``
        counts *input* configs as their results become available.

        Duplicates in the batch map to one solve and one shared result
        object, and the progress callback ends on exactly ``(total,
        total)``:

        >>> from repro.core.config import paper_config
        >>> service = SolverService()
        >>> configs = [paper_config(seed=2), paper_config(seed=2),
        ...            paper_config(seed=3)]
        >>> ticks = []
        >>> results = service.solve_many(
        ...     configs, progress=lambda done, total: ticks.append((done, total)))
        >>> len(results), results[0] is results[1]
        (3, True)
        >>> ticks[-1]
        (3, 3)
        >>> service.last_backend in ("batched", "pool", "serial")
        True
        """
        chosen = resolve_backend(backend, workers)
        if chosen == "pool":
            # An explicit pool request without a worker count means "use the
            # machine"; if that still yields no parallelism the run is
            # serial and must be recorded as such.
            if workers is None or workers < 2:
                workers = os.cpu_count() or 1
            if workers < 2:
                chosen = "serial"
        self.last_backend = chosen
        if initials is None:
            initials = [None] * len(configs)
        elif len(initials) != len(configs):
            raise ValueError("initials must align with configs")
        keys: List[str] = []
        cacheable: List[bool] = []
        for i, cfg in enumerate(configs):
            if initials[i] is not None:
                # Warm starts can change the trajectory, so (as in solve())
                # they bypass the fingerprint cache in both directions.
                keys.append(f"__warm_{i}__")
                cacheable.append(False)
                continue
            try:
                keys.append(config_fingerprint(cfg))
                cacheable.append(True)
            except FingerprintError:
                # No stable identity: a unique per-index key keeps the item
                # in the batch but out of the cache and dedup.
                keys.append(f"__uncacheable_{i}__")
                cacheable.append(False)
        total = len(configs)
        counts = Counter(keys)
        # Duplicate fingerprints inside one batch share a single solve; count
        # them as coalesced requests (the serve daemon adds its own in-flight
        # merges on top via note_coalesced).
        duplicates = total - len(counts)
        if duplicates and count_cache_stats:
            self.note_coalesced(duplicates)
        results: Dict[str, QuHEResult] = {}
        pending: List[int] = []  # first input index of each unsolved unique key
        queued = set()
        for i, key in enumerate(keys):
            if key in results or key in queued:
                continue
            probe = self._cache_get if count_cache_stats else self._cache_peek
            cached = probe(key) if use_cache and cacheable[i] else None
            if cached is not None:
                results[key] = cached
            else:
                queued.add(key)
                pending.append(i)
        # Cached (and their duplicate) items are "done" before solving starts.
        done = sum(counts[key] for key in results)
        if progress is not None and done:
            progress(done, total)
        if pending:
            # done-count after each completed unique pending solve, duplicates
            # included, so the final tick reports exactly (total, total).
            ticks = list(accumulate(counts[keys[i]] for i in pending))

            def _tick(completed: int, _n: int) -> None:
                if progress is not None:
                    progress(done + ticks[completed - 1], total)

            pending_configs = [configs[i] for i in pending]
            pending_initials = [initials[i] for i in pending]
            if chosen == "batched":
                # Per-config ticks, not one callback for the whole batch:
                # shape groups may complete out of pending order, so count
                # each config's duplicates as *its* result appears instead
                # of assuming pending-order completion like the pool path.
                state = {"done": done}

                def _on_config(position: int) -> None:
                    state["done"] += counts[keys[pending[position]]]
                    if progress is not None:
                        progress(state["done"], total)

                try:
                    solved = self._batched.solve_batch(
                        pending_configs,
                        initials=pending_initials,
                        on_config=_on_config if progress is not None else None,
                    )
                except SolverError:
                    # One pathological config poisons the whole vectorized
                    # pass; re-solve the pending set per config so healthy
                    # members complete on the primary path and only the
                    # failing one takes the degraded fallback.
                    solved = [
                        _solve_config(cfg) if init is None
                        else _solve_config_warm((cfg, init))
                        for cfg, init in zip(pending_configs, pending_initials)
                    ]
                    if progress is not None:
                        progress(total, total)
            elif any(initial is not None for initial in pending_initials):
                solved = parallel_map(
                    _solve_config_warm,
                    list(zip(pending_configs, pending_initials)),
                    workers=workers if chosen == "pool" else None,
                    progress=_tick,
                )
            else:
                solved = parallel_map(
                    _solve_config,
                    pending_configs,
                    workers=workers if chosen == "pool" else None,
                    progress=_tick,
                )
            for i, result in zip(pending, solved):
                results[keys[i]] = result
                if store_results and use_cache and cacheable[i]:
                    self._cache_put(keys[i], result)
        return [results[key] for key in keys]

    def solve_batch(
        self,
        batch: ConfigBatch,
        *,
        use_cache: bool = True,
        count_cache_stats: bool = True,
        store_results: bool = True,
    ) -> SolutionBatch:
        """Solve a columnar :class:`~repro.core.batch.ConfigBatch` natively.

        The zero-copy sibling of :meth:`solve_many`: the batch's columns
        feed :meth:`BatchedQuHE.solve_config_batch` directly — no per-call
        object→array stacking, no shape regrouping — and the result is a
        :class:`~repro.core.batch.SolutionBatch` whose ``[i]`` views equal
        the scalar results.  Fingerprint caching, dedup, the degraded
        per-config fallback and both cache flags behave exactly as in
        :meth:`solve_many`.
        """
        self.last_backend = "batched"
        k = len(batch)
        keys: List[str] = []
        cacheable: List[bool] = []
        for i in range(k):
            try:
                keys.append(config_fingerprint(batch[i]))
                cacheable.append(True)
            except FingerprintError:
                keys.append(f"__uncacheable_{i}__")
                cacheable.append(False)
        counts = Counter(keys)
        duplicates = k - len(counts)
        if duplicates and count_cache_stats:
            self.note_coalesced(duplicates)
        probe = self._cache_get if count_cache_stats else self._cache_peek
        results: Dict[str, QuHEResult] = {}
        pending: List[int] = []
        queued = set()
        for i, key in enumerate(keys):
            if key in results or key in queued:
                continue
            cached = probe(key) if use_cache and cacheable[i] else None
            if cached is not None:
                results[key] = cached
            else:
                queued.add(key)
                pending.append(i)
        if len(pending) == k:
            # Full miss, no duplicates: the solver's SolutionBatch IS the
            # answer — hand its columns back without any re-assembly.
            try:
                solution = self._batched.solve_config_batch(batch)
            except SolverError:
                solved = [_solve_config(batch[i]) for i in range(k)]
                solution = SolutionBatch.from_results(solved)
            if store_results and use_cache:
                for i in range(k):
                    if cacheable[i]:
                        self._cache_put(keys[i], solution[i])
            return solution
        if pending:
            sub = batch.select(pending)
            try:
                solved_batch = self._batched.solve_config_batch(sub)
                solved = [solved_batch[j] for j in range(len(pending))]
            except SolverError:
                solved = [_solve_config(batch[i]) for i in pending]
            for i, result in zip(pending, solved):
                results[keys[i]] = result
                if store_results and use_cache and cacheable[i]:
                    self._cache_put(keys[i], result)
        return SolutionBatch.from_results([results[key] for key in keys])
