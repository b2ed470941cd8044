"""The tree comparison behind tests/bundle_checks.py. A comparison that missed
a difference would let every bundle check pass, so each kind of difference
must be reported, and equal trees must give no finding."""

import os
import subprocess

import pytest

import bundle_checks
from bundle_checks import differences, main


@pytest.fixture
def trees(tmp_path):
    """Two equal trees, a and b, each with a file at the top and one in a
    subdirectory."""
    for side in ("a", "b"):
        (tmp_path / side / "sub").mkdir(parents=True)
        (tmp_path / side / "f.txt").write_bytes(b"frame 0")
        (tmp_path / side / "sub" / "g.bin").write_bytes(bytes(range(256)))
    return tmp_path / "a", tmp_path / "b"


def test_equal_trees_give_no_finding(trees):
    assert differences(*trees) == []


def test_one_changed_byte_is_reported(trees):
    # same size and the same mtime, so a shallow os.stat comparison would pass
    a, b = trees
    (b / "f.txt").write_bytes(b"frame 1")
    st = os.stat(a / "f.txt")
    os.utime(b / "f.txt", ns=(st.st_atime_ns, st.st_mtime_ns))
    assert differences(a, b) == [f"{a / 'f.txt'} and {b / 'f.txt'} differ"]


def test_a_file_only_on_the_left_is_reported(trees):
    a, b = trees
    (a / "extra.csv").write_bytes(b"")
    assert differences(a, b) == [f"only in {a}: extra.csv"]


def test_a_file_only_on_the_right_is_reported(trees):
    a, b = trees
    (b / "sub" / "extra.csv").write_bytes(b"")
    assert differences(a, b) == [f"only in {b}: sub/extra.csv"]


def test_a_changed_file_in_a_subdirectory_is_reported(trees):
    a, b = trees
    (b / "sub" / "g.bin").write_bytes(bytes(range(255)) + b"\x00")
    assert differences(a, b) == [f"{a / 'sub' / 'g.bin'} and {b / 'sub' / 'g.bin'} differ"]


def test_two_files_compare_like_cmp(trees):
    a, b = trees
    assert differences(a / "f.txt", b / "f.txt") == []
    g = b / "sub" / "g.bin"
    assert differences(a / "f.txt", g) == [f"{a / 'f.txt'} and {g} differ"]


def test_a_missing_tree_is_an_error_not_an_empty_tree(trees, tmp_path):
    with pytest.raises(FileNotFoundError):
        differences(trees[0], tmp_path / "missing")


def test_an_existing_work_directory_is_refused(tmp_path):
    work = tmp_path / "checks"
    work.mkdir()
    with pytest.raises(FileExistsError):
        main([str(work)])
    assert list(work.iterdir()) == []


def test_a_command_past_the_timeout_fails_its_check(monkeypatch, tmp_path):
    # a command that hangs must fail its own check, not stall the whole run
    monkeypatch.setattr(bundle_checks, "RUN_TIMEOUT", 0.01)
    with pytest.raises(subprocess.TimeoutExpired):
        bundle_checks.run(f"scenario --name vortex_2d --out {tmp_path / 'v'}")
