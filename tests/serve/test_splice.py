"""Reply bytes on the serve hit path: one encoding per result, spliced.

The daemon encodes each solved result once and splices that stored text
into every reply that carries it.  These tests read raw reply lines off the
socket and check the ``result`` bytes of the solved, coalesced and hit
replies of one spec against each other and against the cache row, on both
cache backends and both batch paths, plus the recovery from a cache row
that fails its integrity checks.
"""

import asyncio
import json
import sqlite3

import pytest

from repro.api.service import config_fingerprint
from repro.serve import AllocationServer, ConfigSpec, ServeSettings
from repro.serve.cache import SqliteResultCache
from repro.serve.protocol import (
    ServeRequest,
    ServeResponse,
    decode_line,
    encode_line,
)
from repro.serve.server import _encode_response

SPEC = ConfigSpec(seed=2)
KEY = config_fingerprint(SPEC.build())


def _result_bytes(line: bytes) -> bytes:
    """The ``result`` value of a reply line, exactly as sent."""
    start = line.index(b'"result": ') + len(b'"result": ')
    return line[start:-2]


def _solve_line(rid: str) -> bytes:
    return encode_line(ServeRequest(id=rid, op="solve", spec=SPEC).to_dict())


async def _exchange(socket_path: str, ids) -> dict:
    """Send one solve per id on one connection; raw reply lines by id."""
    reader, writer = await asyncio.open_unix_connection(
        socket_path, limit=1 << 22
    )
    try:
        writer.write(b"".join(_solve_line(rid) for rid in ids))
        await writer.drain()
        replies = {}
        for _ in ids:
            line = await asyncio.wait_for(reader.readline(), 120.0)
            replies[decode_line(line)["id"]] = line
        return replies
    finally:
        writer.close()
        await writer.wait_closed()


async def _serve(settings, rounds):
    """Run each id-list round in turn against one daemon."""
    server = AllocationServer(settings)
    await server.start()
    try:
        return [await _exchange(settings.socket_path, ids) for ids in rounds]
    finally:
        await server.stop()


def _scrub(value):
    """Drop wall-clock ``runtime_s`` fields (a re-solve re-times them)."""
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items() if k != "runtime_s"}
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


@pytest.mark.parametrize("backend", ["lru", "sqlite"])
@pytest.mark.parametrize("workers", [0, 1])
def test_solved_coalesced_and_hit_results_are_byte_identical(
    tmp_path, backend, workers
):
    db = str(tmp_path / "cache.db") if backend == "sqlite" else ""
    settings = ServeSettings(
        socket_path=str(tmp_path / "s.sock"), cache_db=db, workers=workers
    )
    burst = [f"b{i}" for i in range(6)]
    first, second = asyncio.run(_serve(settings, [burst, ["hit"]]))
    replies = {**first, **second}

    dispositions = sorted(
        decode_line(line)["meta"]["cache"] for line in replies.values()
    )
    assert dispositions == ["coalesced"] * 5 + ["hit", "solved"]
    results = {_result_bytes(line) for line in replies.values()}
    assert len(results) == 1
    for line in replies.values():
        # The splice writes what a full encode of the parsed reply would.
        assert encode_line(decode_line(line)) == line
    if backend == "sqlite":
        (text,) = results
        assert SqliteResultCache(db).get_text(KEY).encode() == text


def test_corrupt_row_is_dropped_and_resolved(tmp_path):
    db = str(tmp_path / "cache.db")
    settings = ServeSettings(socket_path=str(tmp_path / "s.sock"), cache_db=db)

    async def scenario():
        server = AllocationServer(settings)
        await server.start()
        try:
            original = (await _exchange(settings.socket_path, ["a"]))["a"]
            text = SqliteResultCache(db).get_text(KEY)
            i = text.index("0")
            conn = sqlite3.connect(db)
            with conn:
                conn.execute(
                    "UPDATE results SET payload = ? WHERE key = ?",
                    (text[:i] + "1" + text[i + 1:], KEY),
                )
            conn.close()
            resolved = (await _exchange(settings.socket_path, ["b"]))["b"]
            hit = (await _exchange(settings.socket_path, ["c"]))["c"]
            return original, resolved, hit, dict(server.stats)
        finally:
            await server.stop()

    original, resolved, hit, stats = asyncio.run(scenario())
    reply = decode_line(resolved)
    assert reply["ok"] and reply["meta"]["cache"] == "solved"
    assert stats["cache_corrupt"] == 1 and stats["errors"] == 0
    # The re-solve answers the original result; only its wall-clock
    # runtime_s fields are re-timed.
    assert _scrub(reply["result"]) == _scrub(decode_line(original)["result"])
    # The row was rewritten with the text the re-solve answered with.
    assert SqliteResultCache(db).get_text(KEY).encode() == \
        _result_bytes(resolved)
    assert decode_line(hit)["meta"]["cache"] == "hit"
    assert _result_bytes(hit) == _result_bytes(resolved)


def test_encode_response_splice_matches_full_encode():
    payload = {"kind": "quhe_result", "format_version": 1,
               "z": [1.5, None], "a": {"b": "é"}}
    response = ServeResponse(id="r", ok=True, meta={"cache": "hit"})
    spliced = _encode_response(response, json.dumps(payload, sort_keys=True))
    full = encode_line(
        ServeResponse(id="r", ok=True, result=payload,
                      meta={"cache": "hit"}).to_dict()
    )
    assert spliced == full
    assert _encode_response(response, None) == encode_line(response.to_dict())


@pytest.mark.parametrize("backend", ["lru", "sqlite"])
def test_hits_never_encode_or_decode_a_result(tmp_path, monkeypatch, backend):
    """After the solve, hits reply from stored text alone."""
    from repro import io as repro_io

    db = str(tmp_path / "cache.db") if backend == "sqlite" else ""
    settings = ServeSettings(socket_path=str(tmp_path / "s.sock"), cache_db=db)

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit ran a result codec")

    async def scenario():
        server = AllocationServer(settings)
        await server.start()
        try:
            solved = (await _exchange(settings.socket_path, ["a"]))["a"]
            monkeypatch.setattr(repro_io, "result_to_dict", refuse)
            monkeypatch.setattr(repro_io, "result_from_dict", refuse)
            hits = await _exchange(settings.socket_path, ["b", "c"])
            return solved, hits
        finally:
            await server.stop()

    solved, hits = asyncio.run(scenario())
    for line in hits.values():
        assert decode_line(line)["meta"]["cache"] == "hit"
        assert _result_bytes(line) == _result_bytes(solved)
