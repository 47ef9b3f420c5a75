"""Crash-safe file output (``repro.ioutil``).

The protocol under test: a write either replaces the destination with
the complete new content or leaves the previous file as it was, and
never leaves a ``*.tmp`` file behind.
"""

import json

import pytest

from repro.ioutil import (
    atomic_write_bytes, atomic_write_chunks, atomic_write_json,
)


class _Interrupted(Exception):
    pass


def _failing_chunks():
    yield b'{"partial":'
    yield b"[1,2,"
    raise _Interrupted("producer failed midway")


def test_failed_stream_keeps_previous_file(tmp_path):
    path = tmp_path / "trace.json"
    path.write_bytes(b"previous")
    with pytest.raises(_Interrupted):
        atomic_write_chunks(str(path), _failing_chunks())
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]


def test_failed_stream_creates_nothing(tmp_path):
    path = tmp_path / "new.json"
    with pytest.raises(_Interrupted):
        atomic_write_chunks(str(path), _failing_chunks())
    assert list(tmp_path.iterdir()) == []


def test_chunks_are_concatenated(tmp_path):
    path = tmp_path / "out.bin"
    atomic_write_chunks(str(path), iter([b"ab", b"", b"cd"]))
    assert path.read_bytes() == b"abcd"


def test_atomic_write_bytes_round_trips(tmp_path):
    path = tmp_path / "blob.bin"
    data = bytes(range(256)) * 3
    atomic_write_bytes(str(path), data)
    assert path.read_bytes() == data
    atomic_write_bytes(str(path), b"replaced")
    assert path.read_bytes() == b"replaced"
    assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


def test_atomic_write_json_round_trips(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(str(path), {"a": [1, 2]}, indent=2)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1, 2]}
