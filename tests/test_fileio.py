from __future__ import annotations

import os
import stat

import pytest

from ltakit._fileio import atomic_write_text
from ltakit.cli import run


class Interrupted(Exception):
    pass


def chunks_then_fail():
    yield "first line\n"
    yield "second line\n"
    raise Interrupted


class TestAtomicWriteText:
    def test_chunks_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, (f"{i}\n" for i in range(3)))
        assert path.read_text() == "0\n1\n2\n"

    def test_failure_mid_stream_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(Interrupted):
            atomic_write_text(path, chunks_then_fail())
        assert list(tmp_path.iterdir()) == []

    def test_failure_mid_stream_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old contents\n")
        with pytest.raises(Interrupted):
            atomic_write_text(path, chunks_then_fail())
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "old contents\n"


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=lambda mask: f"umask{mask:03o}")
def test_outputs_get_the_mode_a_plain_open_gives(tmp_path, umask):
    # The temp file behind every write is created 0o600; the output must not keep that.
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w"):
            pass
        assert run(["synth", "--out-dir", str(tmp_path / "corpus"), "--clips", "3"]) == 0
    finally:
        os.umask(old)
    want = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
    outputs = sorted((tmp_path / "corpus").iterdir())
    assert [p.name for p in outputs] == ["annotations.jsonl", "distributions.jsonl", "provenance.json", "taxonomy.txt"]
    assert {p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in outputs} == dict.fromkeys(
        [p.name for p in outputs], oct(want)
    )
