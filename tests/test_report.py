import os

import pytest

from ruelle_rand import report

OLD = "old bytes that run past the new end\n" * 4096


def test_rewrite_in_place_keeps_inode_and_cuts_the_tail(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text(OLD)
    inode = os.stat(path).st_ino
    with report.open_output(str(path)) as fh:
        fh.write("k,value\n1,0.5\n")
    assert path.read_bytes() == b"k,value\n1,0.5\n"
    assert os.stat(path).st_ino == inode


def test_creates_a_missing_file_as_open_would(tmp_path):
    new, plain = tmp_path / "new.txt", tmp_path / "plain.txt"
    with report.open_output(str(new)) as fh:
        fh.write("x\n")
    with open(plain, "w", encoding="utf-8") as fh:
        fh.write("x\n")
    assert new.read_bytes() == plain.read_bytes()
    assert os.stat(new).st_mode == os.stat(plain).st_mode


def test_open_never_truncates(tmp_path, monkeypatch):
    seen = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        seen.append(flags)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    path = tmp_path / "out.csv"
    path.write_text(OLD)
    report.write_csv(str(path), ["k"], [(1,)])
    assert seen
    for flags in seen:
        assert not flags & os.O_TRUNC
        assert flags & os.O_WRONLY and flags & os.O_CREAT
    assert path.read_text() == "k\n1\n"


def test_exception_mid_write_leaves_only_what_was_written(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text(OLD)
    # the second row's NaN is refused after the header and first row went in
    with pytest.raises(ValueError, match="non-finite"):
        report.write_csv(str(path), ["x"], ((v,) for v in (1.5, float("nan"))))
    assert path.read_bytes() == b"x\n1.5\n"


def test_text_bytes_equal_a_truncating_write(tmp_path):
    text = "header,λ\nline two\né\n" * 3
    new, plain = tmp_path / "new.txt", tmp_path / "plain.txt"
    new.write_text(OLD)
    plain.write_text(OLD)
    with report.open_output(str(new)) as fh:
        fh.write(text)
    with open(plain, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert new.read_bytes() == plain.read_bytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_pipe_is_written_not_truncated():
    r, w = os.pipe()
    with os.fdopen(r, "rb") as reader, os.fdopen(w, "wb") as writer:
        with report.open_output(f"/dev/fd/{writer.fileno()}") as fh:
            fh.write("through a pipe\n")
        writer.close()
        assert reader.read() == b"through a pipe\n"
