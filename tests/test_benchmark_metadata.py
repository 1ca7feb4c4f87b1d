"""Trajectory snapshots are stamped with the tree they measured."""

import hashlib
import shutil
import subprocess

import pytest

from benchmarks import run_all

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="git is not installed")


def git(root, *arguments):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         *arguments], cwd=root, check=True, capture_output=True).stdout


@pytest.fixture
def repository(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "model.py").write_text("RATE = 1.0\n")
    (tmp_path / "BENCH_model.json").write_text("{}\n")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def test_a_clean_tree_is_stamped_with_its_commit_alone(repository):
    meta = run_all.host_metadata(repository)
    assert meta["commit"] == git(repository, "rev-parse", "HEAD").decode() \
        .strip()
    assert meta["dirty"] is False
    assert meta["diff_sha256"] is None


def test_a_modified_tree_is_stamped_with_its_diff(repository):
    (repository / "model.py").write_text("RATE = 2.0\n")
    meta = run_all.host_metadata(repository)
    expected = hashlib.sha256(
        git(repository, "diff", "HEAD", "--binary")).hexdigest()
    assert meta["dirty"] is True
    assert meta["diff_sha256"] == expected
    (repository / "model.py").write_text("RATE = 3.0\n")
    assert run_all.host_metadata(repository)["diff_sha256"] != expected


def test_rewritten_benchmark_outputs_leave_the_tree_clean(repository):
    (repository / "BENCH_model.json").write_text('{"points": 1}\n')
    assert run_all.git_tree_state(repository) == (False, None)


def test_outside_a_work_tree_nothing_is_claimed(tmp_path):
    outside = tmp_path / "plain"
    outside.mkdir()
    assert run_all.git_commit(outside) is None
    assert run_all.git_tree_state(outside) == (None, None)
