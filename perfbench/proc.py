"""Run one CLI process and measure it as a whole process tree.

cpu_s comes from wait4's rusage, which on Linux includes every descendant
the process waited for, so the fork-pool workers that `montecarlo` joins
are counted. Peak memory is the larger of wait4's ru_maxrss (the largest
single process in the tree) and the peak over time of the summed RSS of
the process and its live descendants, sampled from /proc every 10 ms; a
page shared by a parent and a forked worker is counted once per process.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

_PAGE = os.sysconf("SC_PAGE_SIZE")
_POLL_S = 0.01
_ENTRY = "import sys; from ruelle_rand.cli import main; sys.argv[0] = 'ruelle-rand'; main()"


@dataclass(frozen=True)
class ProcResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float  # wait4: largest single process of the tree
    tree_rss_mb: float  # sampled peak of the summed tree RSS
    stdout: str
    stderr: str

    @property
    def peak_rss_mb(self) -> float:
        return max(self.maxrss_mb, self.tree_rss_mb)


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            kids = [int(k) for k in fh.read().split()]
    except OSError:
        return []
    return kids + [g for k in kids for g in _children(k)]


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def _kill_tree(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def python_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("RUELLE_RAND_WORKERS", None)
    return env


def run(cmd: list[str], root: str, tmpdir: str, deadline: float) -> ProcResult:
    """Run cmd to completion in its own session; kill the whole tree at
    the monotonic `deadline`. Output goes through files, not pipes, so a
    chatty child cannot block on a full pipe while we wait for it."""
    out_path = os.path.join(tmpdir, "stdout.txt")
    err_path = os.path.join(tmpdir, "stderr.txt")
    peak = [0]
    done = threading.Event()
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=python_env(root),
                                stdout=out, stderr=err, start_new_session=True)

        def sample():
            while not done.is_set():
                tree = [proc.pid] + _children(proc.pid)
                peak[0] = max(peak[0], sum(_rss_bytes(p) for p in tree))
                if time.monotonic() > deadline:
                    _kill_tree(proc.pid)
                done.wait(_POLL_S)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            _kill_tree(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            done.set()
            sampler.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return ProcResult(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss * 1024 / 1e6,
        tree_rss_mb=peak[0] / 1e6,
        stdout=stdout,
        stderr=stderr,
    )


def cli_command(argv) -> list[str]:
    """The real entry point, ruelle_rand.cli:main, in a fresh interpreter."""
    return [sys.executable, "-c", _ENTRY, *argv]


def import_command() -> list[str]:
    """Interpreter start plus `import ruelle_rand.cli`: the set-up cost."""
    return [sys.executable, "-c", "import ruelle_rand.cli"]
