"""Whole-file writes: the old bytes or the new, and no temporary left over."""

import pytest

from repro.utils import atomic
from repro.utils.atomic import is_temp, write_atomic


def test_chunks_become_the_whole_file(tmp_path):
    target = tmp_path / "out.bin"
    write_atomic(target, b"stale and longer")
    write_atomic(target, b"ab", b"", b"cd")
    assert target.read_bytes() == b"abcd"
    assert [path.name for path in tmp_path.iterdir()] == ["out.bin"]


def test_a_write_that_fails_keeps_the_previous_bytes(tmp_path):
    target = tmp_path / "out.txt"
    write_atomic(target, b"before")
    with pytest.raises(TypeError):
        write_atomic(target, b"half", "not bytes")
    assert target.read_bytes() == b"before"
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]


def test_a_rename_that_fails_keeps_the_previous_bytes(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    write_atomic(target, b"before")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(atomic.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_atomic(target, b"after")
    assert target.read_bytes() == b"before"
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]


def test_temp_names_are_told_from_data():
    assert is_temp("outcome.txt.tmp.4242.139872")
    assert not is_temp("outcome.txt")
    assert not is_temp("result.tmp")
    assert not is_temp("data.tmp.1")
