"""SqliteResultCache: round-trips, eviction, corruption, concurrency.

The cross-process test spawns two real writer processes hammering one
database file — the property the serving stack depends on (WAL + busy
timeout + IMMEDIATE transactions means no writer ever sees a corrupt or
half-written row).
"""

import json
import sqlite3
import subprocess
import sys

import pytest

from repro import io as repro_io
from repro.errors import ArtifactError
from repro.serve.cache import SCHEMA_VERSION, SqliteResultCache


@pytest.fixture()
def db(tmp_path):
    return str(tmp_path / "results.db")


class TestRoundTrip:
    def test_quhe_result_codec_round_trip(self, db, quhe_result):
        cache = SqliteResultCache(db)
        cache.put("k1", quhe_result)
        restored = cache.get("k1")
        assert restored.objective == quhe_result.objective
        assert repro_io.result_to_dict(restored) == repro_io.result_to_dict(
            quhe_result
        )

    def test_payload_bytes_stable(self, db, quhe_result):
        """What goes in comes out byte-for-byte (the daemon forwards rows)."""
        cache = SqliteResultCache(db)
        payload = repro_io.result_to_dict(quhe_result)
        cache.put_payload("k1", payload)
        assert json.dumps(cache.get_payload("k1"), sort_keys=True) == \
            json.dumps(payload, sort_keys=True)

    def test_missing_key_is_none(self, db):
        assert SqliteResultCache(db).get("nope") is None

    def test_visible_across_instances(self, db):
        SqliteResultCache(db).put_payload("k", {"kind": "x", "v": 1})
        assert SqliteResultCache(db).get_payload("k") == {"kind": "x", "v": 1}

    def test_clear_and_len(self, db):
        cache = SqliteResultCache(db)
        cache.put_payload("a", {"v": 1})
        cache.put_payload("b", {"v": 2})
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0


class TestEviction:
    def test_lru_eviction_at_capacity(self, db):
        cache = SqliteResultCache(db, capacity=2)
        cache.put_payload("a", {"v": 1})
        cache.put_payload("b", {"v": 2})
        cache.get_payload("a")  # bump a: b is now least recently used
        cache.put_payload("c", {"v": 3})
        assert len(cache) == 2
        assert cache.get_payload("b") is None
        assert cache.get_payload("a") == {"v": 1}
        assert cache.get_payload("c") == {"v": 3}

    def test_capacity_zero_stores_nothing(self, db):
        cache = SqliteResultCache(db, capacity=0)
        cache.put_payload("a", {"v": 1})
        assert len(cache) == 0

    def test_negative_capacity_rejected(self, db):
        with pytest.raises(ValueError, match="non-negative"):
            SqliteResultCache(db, capacity=-1)


class TestCorruption:
    def test_corrupt_database_raises_artifact_error_naming_path(self, tmp_path):
        bad = tmp_path / "corrupt.db"
        bad.write_bytes(b"this is not a sqlite database, not even close")
        with pytest.raises(ArtifactError, match="corrupt.db") as excinfo:
            cache = SqliteResultCache(bad)
            cache.put_payload("k", {"v": 1})  # header check may be lazy
        assert excinfo.value.path == str(bad)

    def test_corrupt_payload_row_raises_artifact_error(self, db):
        cache = SqliteResultCache(db)
        conn = cache._connection()
        conn.execute(
            "INSERT INTO results (key, payload, seq) VALUES ('bad', '{', 1)"
        )
        with pytest.raises(ArtifactError, match="corrupt cache payload"):
            cache.get_payload("bad")

    def test_undecodable_result_row_raises_artifact_error(self, db):
        cache = SqliteResultCache(db)
        cache.put_payload("k", {"kind": "no_such_kind"})
        with pytest.raises(ArtifactError, match="undecodable cache row"):
            cache.get("k")


class TestStoredText:
    def test_text_stored_verbatim_and_returned_unparsed(self, db, quhe_result):
        cache = SqliteResultCache(db)
        payload = repro_io.result_to_dict(quhe_result)
        text = repro_io.payload_text(payload)
        cache.put_payload("k", payload, text=text)
        assert cache.get_text("k") == text
        # The object path reads the same row.
        assert repro_io.result_to_dict(cache.get("k")) == payload

    def test_put_encodes_the_canonical_text(self, db, quhe_result):
        cache = SqliteResultCache(db)
        cache.put("k", quhe_result)
        assert cache.get_text("k") == repro_io.payload_text(
            repro_io.result_to_dict(quhe_result)
        )

    def test_row_carries_kind_version_and_digest(self, db, quhe_result):
        cache = SqliteResultCache(db)
        cache.put("k", quhe_result)
        kind, version, digest = cache._connection().execute(
            "SELECT kind, version, digest FROM results WHERE key = 'k'"
        ).fetchone()
        assert kind == "quhe_result"
        assert version == repro_io.codec_version("quhe_result")
        assert len(digest) == 64

    def test_get_text_missing_key_is_none(self, db):
        assert SqliteResultCache(db).get_text("nope") is None

    def test_discard_removes_the_row(self, db):
        cache = SqliteResultCache(db)
        cache.put_payload("k", {"v": 1})
        cache.discard("k")
        cache.discard("never-stored")
        assert cache.get_text("k") is None and len(cache) == 0


def _mutate(db, column, value, key="k"):
    conn = sqlite3.connect(db)
    with conn:
        conn.execute(f"UPDATE results SET {column} = ? WHERE key = ?",
                     (value, key))
    conn.close()


class TestRowChecks:
    """Rows are spliced into replies unparsed, so reads verify them."""

    @pytest.fixture()
    def stored(self, db, quhe_result):
        cache = SqliteResultCache(db)
        cache.put("k", quhe_result)
        return cache, cache.get_text("k")

    def test_flipped_payload_byte_raises(self, db, stored):
        cache, text = stored
        i = text.index("0")
        _mutate(db, "payload", text[:i] + "1" + text[i + 1:])
        with pytest.raises(ArtifactError, match="digest mismatch"):
            cache.get_text("k")

    @pytest.mark.parametrize("column,value", [
        ("kind", "allocation"),
        ("version", 7),
        ("digest", "0" * 64),
    ])
    def test_mutated_metadata_raises(self, db, stored, column, value):
        cache, _ = stored
        _mutate(db, column, value)
        with pytest.raises(ArtifactError, match="digest mismatch"):
            cache.get_text("k")

    def test_row_moved_to_another_key_raises(self, db, stored):
        cache, _ = stored
        _mutate(db, "key", "other")
        with pytest.raises(ArtifactError, match="digest mismatch"):
            cache.get_text("other")

    def test_stale_codec_version_is_refused(self, db):
        """Version gating without parsing: a well-formed row written under
        another quhe_result format_version is not served."""
        cache = SqliteResultCache(db)
        cache.put_payload("k", {"kind": "quhe_result", "format_version": 0})
        with pytest.raises(ArtifactError, match="format_version 0"):
            cache.get_text("k")
        with pytest.raises(ArtifactError, match="format_version 0"):
            cache.get("k")


class TestSchemaVersion:
    def test_new_database_is_stamped(self, db):
        SqliteResultCache(db).close()
        conn = sqlite3.connect(db)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == \
            SCHEMA_VERSION
        conn.close()

    def test_old_three_column_database_is_rebuilt_empty(self, db, quhe_result):
        conn = sqlite3.connect(db)
        conn.executescript(
            "CREATE TABLE results (key TEXT PRIMARY KEY,"
            " payload TEXT NOT NULL, seq INTEGER NOT NULL);"
            "CREATE INDEX results_seq ON results (seq);"
        )
        with conn:
            conn.execute(
                "INSERT INTO results VALUES (?, ?, 1)",
                ("k", repro_io.payload_text(
                    repro_io.result_to_dict(quhe_result))),
            )
        conn.close()

        cache = SqliteResultCache(db)
        assert cache.get("k") is None
        assert len(cache) == 0
        cache.put("k", quhe_result)
        assert cache.get("k").objective == quhe_result.objective
        # Reopening a current database keeps its rows.
        assert SqliteResultCache(db).get("k") is not None

    def test_newer_schema_is_refused(self, db):
        conn = sqlite3.connect(db)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(ArtifactError, match="newer"):
            SqliteResultCache(db)


_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.serve.cache import SqliteResultCache
cache = SqliteResultCache({db!r}, capacity=10_000)
tag = sys.argv[1]
for i in range(60):
    cache.put_payload(f"{{tag}}-{{i}}", {{"writer": tag, "i": i}})
    assert cache.get_payload(f"{{tag}}-{{i}}") == {{"writer": tag, "i": i}}
print("ok")
"""

_DOOMED_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.serve.cache import SqliteResultCache
cache = SqliteResultCache({db!r})
cache.put_payload("doomed", {{"v": 2}})
print("survived the crash seam")  # unreachable under the plan
"""


class TestConcurrency:
    def test_two_processes_write_one_database(self, db):
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        script = _WRITER.format(src=src, db=db)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, tag],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for tag in ("p1", "p2")
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        cache = SqliteResultCache(db)
        assert len(cache) == 120
        for tag in ("p1", "p2"):
            for i in (0, 30, 59):
                assert cache.get_payload(f"{tag}-{i}") == {
                    "writer": tag, "i": i,
                }

    def test_writer_killed_mid_put_leaves_a_readable_database(self, db):
        """Crash consistency: a writer dying inside ``put_payload`` costs
        only its own entry.

        A ``cache.put`` crash plan (delivered via ``REPRO_FAULTS``, exactly
        how worker subprocesses inherit plans) kills the writer with the
        row inserted but the transaction open.  sqlite must roll back on
        the next open: the database stays readable, the pre-existing entry
        survives byte-for-byte, and the doomed entry is absent — never
        half-written.
        """
        import os
        from pathlib import Path

        from repro import faults
        from repro.faults import FaultPlan, FaultRule

        SqliteResultCache(db).put_payload("kept", {"v": 1})
        plan = FaultPlan(seed=3, rules=(
            FaultRule(seam="cache.put", kind="crash", probability=1.0),
        ))
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, **{faults.ENV_VAR: plan.to_json()})
        proc = subprocess.run(
            [sys.executable, "-c", _DOOMED_WRITER.format(src=src, db=db)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == faults.CRASH_EXIT_STATUS, proc.stderr
        assert "survived" not in proc.stdout

        cache = SqliteResultCache(db)
        assert cache.get_payload("kept") == {"v": 1}
        assert cache.get_payload("doomed") is None
        assert len(cache) == 1
        # The database is not just readable but still writable.
        cache.put_payload("after", {"v": 3})
        assert cache.get_payload("after") == {"v": 3}

    def test_threaded_writers_one_instance(self, db):
        import threading

        cache = SqliteResultCache(db, capacity=10_000)
        errors = []

        def write(tag):
            try:
                for i in range(40):
                    cache.put_payload(f"{tag}-{i}", {"t": tag, "i": i})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) == 160
