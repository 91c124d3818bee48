"""Hypothesis fuzzing of the bytes the daemon trusts.

``decode_line`` parses whatever arrives on a socket; a cache row's text is
spliced into replies without being parsed.  Neither may let arbitrary
input through as anything but a named error: malformed lines are
``ConfigurationError``, and a tampered row either fails its checks with
``ArtifactError`` or — when the mutation left it intact — yields exactly
the text that was stored.
"""

import sqlite3
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import ArtifactError, ConfigurationError  # noqa: E402
from repro.serve.cache import SqliteResultCache  # noqa: E402
from repro.serve.protocol import decode_line  # noqa: E402

_JSON_BITS = st.sampled_from([
    b"{", b"}", b"[", b"]", b'"', b":", b",", b" ", b"\\", b"-", b".", b"e",
    b"0", b"9", b"1e999", b"NaN", b"null", b"true", b'"id"', b'"op"',
    b"\xff", b"\xc3", b"\x00", b"\n",
])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=256),
    st.lists(_JSON_BITS, max_size=64).map(b"".join),
))
@example(b"[" * 100_000)
@example(b'{"id": ' + b"9" * 5000 + b"}")
@example(b"\xef\xbb\xbf{}")
@example(b'"\\ud800"')
def test_decode_line_raises_only_configuration_error(line):
    try:
        payload = decode_line(line)
    except ConfigurationError:
        return
    assert isinstance(payload, dict)


#: A stored row: real-shaped quhe_result text (never parsed on read).
_TEXT = (
    '{"format_version": 1, "kind": "quhe_result", "objective": 12.5, '
    '"stage3": {"runtime_s": 0.25, "T": [0.1, 0.2]}}'
)
_PAYLOAD = {"kind": "quhe_result", "format_version": 1}

_VALUES = st.one_of(
    st.text(max_size=80),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.floats(allow_nan=False),
    st.binary(max_size=40),
    st.just(_TEXT),
    st.just("quhe_result"),
    st.just(1),
)


def _edits(text: str):
    """One-character edits of the stored text (flips, drops, inserts)."""
    return st.tuples(
        st.integers(0, len(text) - 1), st.sampled_from(["flip", "drop", "ins"]),
        st.characters(),
    ).map(lambda e: (
        text[:e[0]] + e[2] + text[e[0] + 1:] if e[1] == "flip"
        else text[:e[0]] + text[e[0] + 1:] if e[1] == "drop"
        else text[:e[0]] + e[2] + text[e[0]:]
    ))


@pytest.fixture(scope="module")
def cache():
    with tempfile.TemporaryDirectory() as tmp:
        with SqliteResultCache(Path(tmp) / "fuzz.db") as backend:
            yield backend


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(
    st.tuples(
        st.sampled_from(["payload", "digest", "kind", "version"]),
        st.one_of(_VALUES, _edits(_TEXT)),
    ),
    min_size=1, max_size=3,
))
def test_mutated_row_fails_checks_or_yields_the_original(cache, mutations):
    cache.put_payload("k", _PAYLOAD, text=_TEXT)
    conn = cache._connection()
    for column, value in mutations:
        try:
            conn.execute(
                f"UPDATE results SET {column} = ? WHERE key = 'k'", (value,)
            )
        except (sqlite3.Error, UnicodeEncodeError, OverflowError):
            pass  # a value sqlite refuses to store leaves the row as it was
    try:
        text = cache.get_text("k")
    except ArtifactError:
        return
    assert text == _TEXT
