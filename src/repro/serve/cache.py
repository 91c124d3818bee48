"""Sqlite-backed result cache: fingerprint-keyed, shared across processes.

The in-memory :class:`~repro.api.service.LRUResultCache` dies with its
process; the serving stack wants solves performed by one worker (or a
previous daemon incarnation) visible to every other.
:class:`SqliteResultCache` keeps the same backend protocol —
``get``/``put``/``clear``/``len``/``capacity`` — but persists entries in a
single sqlite database:

* **WAL mode** — readers never block the writer and vice versa, which is
  what makes concurrent worker processes on one database practical;
* **fingerprint-keyed** — rows are keyed by
  :func:`~repro.api.service.config_fingerprint` digests, exactly like the
  in-memory cache;
* **stored text** — a row holds the canonical text of a versioned codec
  payload (:func:`repro.io.payload_text` of
  :func:`repro.io.result_to_dict`), its ``kind`` and ``format_version``,
  and a SHA-256 ``digest`` over key, kind, version and text.  The daemon
  splices that text into replies without parsing it, so every read
  (:meth:`SqliteResultCache.get_text`) checks the digest and the codec
  version instead: a row that fails raises
  :class:`~repro.errors.ArtifactError`, never returns other bytes;
* **LRU eviction** — every access bumps a monotonic ``seq``; ``put`` prunes
  rows beyond ``capacity`` in ``seq`` order (oldest-used first);
* **versioned schema** — the database carries ``PRAGMA user_version``; one
  stamped with an older layout is emptied and rebuilt on open (it is a
  cache, so dropping rows only costs re-solves).

Corruption is a named failure, not a crash: a database sqlite cannot open
or read raises :class:`~repro.errors.ArtifactError` carrying the path.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro import faults as _faults
from repro import io as repro_io
from repro.errors import ArtifactError

__all__ = ["SCHEMA_VERSION", "SqliteResultCache"]

PathLike = Union[str, Path]

#: Layout of the ``results`` table, stamped as ``PRAGMA user_version``.
#: Version 2 added ``kind``/``version``/``digest``; a version-0/1 database
#: (the original three-column table) is rebuilt empty on open.
SCHEMA_VERSION = 2

_SCHEMA = (
    """CREATE TABLE results (
        key     TEXT PRIMARY KEY,
        payload TEXT NOT NULL,
        kind    TEXT NOT NULL DEFAULT '',
        version INTEGER NOT NULL DEFAULT 0,
        digest  TEXT NOT NULL DEFAULT '',
        seq     INTEGER NOT NULL
    )""",
    "CREATE INDEX results_seq ON results (seq)",
)

#: How long a writer waits on a cross-process lock before giving up (s).
_BUSY_TIMEOUT_S = 10.0


def _row_digest(key: str, kind: Any, version: Any, text: str) -> str:
    """SHA-256 binding a row's text to its key, kind and format version."""
    blob = f"{key}\n{kind}\n{version}\n{text}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class SqliteResultCache:
    """A :class:`~repro.api.service.SolverService` cache backend on sqlite.

    One instance per process; any number of processes may share the
    database file.  Connections are created lazily per instance and
    guarded by an internal lock, so one instance may also be shared
    between an event loop and executor threads.

    >>> import tempfile, os
    >>> tmp = tempfile.mkdtemp()
    >>> cache = SqliteResultCache(os.path.join(tmp, "results.db"), capacity=2)
    >>> cache.get("missing") is None
    True
    >>> len(cache)
    0
    """

    def __init__(self, path: PathLike, *, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.path = Path(path)
        self.capacity = int(capacity)
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        # Fail fast on an unreadable/corrupt database instead of at first use.
        with self._lock:
            self._connection()

    # -- connection management ----------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                conn = sqlite3.connect(
                    str(self.path),
                    timeout=_BUSY_TIMEOUT_S,
                    check_same_thread=False,
                    isolation_level=None,  # autocommit; we issue BEGINs
                )
            except sqlite3.DatabaseError as exc:
                raise self._unusable("unusable", exc) from exc
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                self._migrate(conn)
            except sqlite3.DatabaseError as exc:
                conn.close()
                raise self._unusable("unusable", exc) from exc
            except BaseException:
                conn.close()
                raise
            self._conn = conn
        return self._conn

    def _migrate(self, conn: sqlite3.Connection) -> None:
        """Bring the database to :data:`SCHEMA_VERSION`.

        A fresh file and one stamped with an older layout are (re)built
        empty under a write lock, so concurrent openers migrate once; a
        database from a newer build is refused rather than emptied under it.
        """
        if conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION:
            return
        conn.execute("BEGIN IMMEDIATE")
        try:
            found = conn.execute("PRAGMA user_version").fetchone()[0]
            if found > SCHEMA_VERSION:
                raise ArtifactError(
                    f"{self.path}: result-cache schema {found} is newer than "
                    f"this build's {SCHEMA_VERSION}",
                    path=str(self.path),
                )
            if found < SCHEMA_VERSION:
                conn.execute("DROP TABLE IF EXISTS results")
                for statement in _SCHEMA:
                    conn.execute(statement)
                conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            conn.execute("COMMIT")
        except BaseException:
            self._rollback(conn)
            raise

    def close(self) -> None:
        """Close the connection (the database remains valid on disk)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "SqliteResultCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- backend protocol ----------------------------------------------------

    def get(self, key: str):
        """The cached :class:`~repro.core.quhe.QuHEResult`, or None."""
        payload = self.get_payload(key)
        if payload is None:
            return None
        try:
            return repro_io.result_from_dict(payload)
        except ValueError as exc:
            raise ArtifactError(
                f"{self.path}: undecodable cache row for {key[:12]}…: {exc}",
                path=str(self.path),
            ) from exc

    def put(self, key: str, result: Any) -> None:
        """Store a result object (serialized through the quhe_result codec)."""
        self.put_payload(key, repro_io.result_to_dict(result))

    def clear(self) -> None:
        with self._lock:
            self._execute("DELETE FROM results")

    def discard(self, key: str) -> None:
        """Delete the row for ``key`` if there is one."""
        with self._lock:
            self._execute("DELETE FROM results WHERE key = ?", (str(key),))

    def __len__(self) -> int:
        with self._lock:
            row = self._execute("SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    # -- text-level access (the daemon splices stored text into replies) ----

    def get_text(self, key: str) -> Optional[str]:
        """The verified stored text for ``key`` (bumps its LRU sequence).

        The text is returned exactly as stored, never parsed — so it is
        checked instead: the row's digest must match its key, kind, version
        and text, and a row of a registered codec kind must carry that
        codec's current ``format_version``.  A row failing either check
        raises :class:`~repro.errors.ArtifactError`; no other text is ever
        returned.
        """
        key = str(key)
        with self._lock:
            conn = self._connection()
            try:
                conn.execute("BEGIN IMMEDIATE")
                row = conn.execute(
                    "SELECT payload, kind, version, digest FROM results"
                    " WHERE key = ?",
                    (key,),
                ).fetchone()
                if row is not None:
                    conn.execute(
                        "UPDATE results SET seq ="
                        " (SELECT COALESCE(MAX(seq), 0) + 1 FROM results)"
                        " WHERE key = ?",
                        (key,),
                    )
                conn.execute("COMMIT")
            except sqlite3.DatabaseError as exc:
                self._rollback(conn)
                raise self._unusable("unreadable", exc) from exc
        if row is None:
            return None
        text, kind, version, digest = row
        if not isinstance(text, str) or digest != _row_digest(
            key, kind, version, text
        ):
            raise ArtifactError(
                f"{self.path}: corrupt cache payload for {key[:12]}…: "
                "digest mismatch",
                path=str(self.path),
            )
        current = repro_io.codec_version(kind)
        if current is not None and version != current:
            raise ArtifactError(
                f"{self.path}: cache row for {key[:12]}… holds {kind} "
                f"format_version {version!r}; this build reads {current}",
                path=str(self.path),
            )
        return text

    def get_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored codec payload for ``key``, parsed (bumps its LRU seq)."""
        text = self.get_text(key)
        if text is None:
            return None
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ArtifactError(
                f"{self.path}: corrupt cache payload for {key[:12]}…: {exc}",
                path=str(self.path),
            ) from exc
        if not isinstance(payload, dict):
            raise ArtifactError(
                f"{self.path}: cache payload for {key[:12]}… is not an object",
                path=str(self.path),
            )
        return payload

    def put_payload(
        self,
        key: str,
        payload: Dict[str, Any],
        *,
        text: Optional[str] = None,
        result: Any = None,
    ) -> None:
        """Store a codec payload under ``key`` (evicting LRU overflow).

        ``text`` is the payload's canonical text
        (:func:`repro.io.payload_text`) when the caller already encoded it;
        it is stored verbatim, so later hits splice exactly the bytes the
        caller answered with.  ``result`` (the decoded object) is accepted
        for protocol parity with the in-memory cache and not needed here.
        """
        if self.capacity == 0:
            return
        key = str(key)
        if text is None:
            text = repro_io.payload_text(payload)
        kind = payload.get("kind")
        kind = kind if isinstance(kind, str) else ""
        version = payload.get("format_version")
        version = version if type(version) is int else 0
        digest = _row_digest(key, kind, version, text)
        with self._lock:
            conn = self._connection()
            try:
                conn.execute("BEGIN IMMEDIATE")
                conn.execute(
                    "INSERT OR REPLACE INTO results"
                    " (key, payload, kind, version, digest, seq) VALUES"
                    " (?, ?, ?, ?, ?,"
                    "  (SELECT COALESCE(MAX(seq), 0) + 1 FROM results))",
                    (key, text, kind, version, digest),
                )
                conn.execute(
                    "DELETE FROM results WHERE key NOT IN"
                    " (SELECT key FROM results ORDER BY seq DESC LIMIT ?)",
                    (self.capacity,),
                )
                # Crash-consistency seam: fires with the row inserted but the
                # transaction open — ``kind="crash"`` models a writer process
                # dying mid-put, which sqlite must roll back on next open.
                _faults.fire("cache.put")
                conn.execute("COMMIT")
            except sqlite3.DatabaseError as exc:
                self._rollback(conn)
                raise self._unusable("unwritable", exc) from exc
            except BaseException:
                # An injected (non-sqlite) failure mid-transaction: release
                # the write lock so other processes are not stuck behind it.
                self._rollback(conn)
                raise

    # -- internals -----------------------------------------------------------

    def _unusable(self, state: str, exc: BaseException) -> ArtifactError:
        return ArtifactError(
            f"{self.path}: {state} result-cache database: {exc}",
            path=str(self.path),
        )

    def _execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        conn = self._connection()
        try:
            return conn.execute(sql, params)
        except sqlite3.DatabaseError as exc:
            raise self._unusable("unusable", exc) from exc

    @staticmethod
    def _rollback(conn: sqlite3.Connection) -> None:
        try:
            conn.execute("ROLLBACK")
        except sqlite3.DatabaseError:
            pass
