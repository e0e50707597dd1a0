"""Child processes of the benchmark: own session, graceful stop, wait4 reaping.

Every process the benchmark starts goes through :class:`Children`, which

* starts it in its own session (so signals aimed at the benchmark's terminal
  never reach it, and ``killpg`` reaches anything it forks);
* stops it with SIGTERM, waits for it to drain, and escalates to SIGKILL
  after a timeout;
* reaps it with ``os.wait4``, which also yields its peak resident memory and
  CPU time;
* at the end checks that no process group it started still has a member,
  counting each survivor as a failed operation.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass, field


@dataclass
class Exit:
    """How a reaped child ended, from ``os.wait4``."""

    code: int | None
    signal: int | None
    peak_rss_mb: float
    cpu_s: float


@dataclass
class Child:
    """One started process and the output it has printed so far."""

    proc: subprocess.Popen
    launched: float
    name: str
    output: bytearray = field(default_factory=bytearray)
    exit: Exit | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_until(self, marker: bytes, timeout: float) -> bytes:
        """Read stdout until a line containing ``marker``; return that line.

        Raises ``RuntimeError`` if the child exits or the timeout passes first.
        """
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            for line in bytes(self.output).splitlines(keepends=True):
                if marker in line and line.endswith(b"\n"):
                    return line
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"{self.name}: no {marker!r} line within {timeout:.0f}s")
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"{self.name} exited before printing {marker!r}: "
                        f"{bytes(self.output[-2000:]).decode(errors='replace')}"
                    )
                self.output += chunk


class Children:
    """Registry of every process the benchmark started.

    The benchmark pins itself to the first CPU it may use, and every child
    inherits that affinity: the system under test and the load generator
    share one core.  Interleaved runs of ``serve_durable`` were steadier
    this way than with the server on a CPU of its own (see README.md).
    """

    def __init__(self, env: dict, cwd: str) -> None:
        self._env = env
        self._cwd = cwd
        self._started: list[Child] = []
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def start(self, argv: list[str], name: str) -> Child:
        """Start ``argv`` in a new session with stdout piped and stderr inherited."""
        launched = time.monotonic()
        proc = subprocess.Popen(
            argv,
            cwd=self._cwd,
            env=self._env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        child = Child(proc=proc, launched=launched, name=name)
        self._started.append(child)
        return child

    def reap(self, child: Child, timeout: float | None) -> Exit | None:
        """Wait up to ``timeout`` seconds (None = forever) for ``child`` to exit."""
        if child.exit is not None:
            return child.exit
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            flags = 0 if deadline is None else os.WNOHANG
            pid, status, usage = os.wait4(child.pid, flags)
            if pid == child.pid:
                break
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.01)
        child.exit = Exit(
            code=os.waitstatus_to_exitcode(status) if os.WIFEXITED(status) else None,
            signal=os.WTERMSIG(status) if os.WIFSIGNALED(status) else None,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
        )
        # Popen did not reap it; tell it so it never waits on a reused pid.
        child.proc.returncode = child.exit.code if child.exit.code is not None else -child.exit.signal
        return child.exit

    def signal(self, child: Child, signum: int) -> None:
        """Send ``signum`` to the child's whole process group."""
        if child.exit is None:
            try:
                os.killpg(child.pid, signum)
            except ProcessLookupError:
                pass

    def stop(self, child: Child, timeout: float = 20.0) -> Exit:
        """SIGTERM, wait ``timeout`` seconds for a drain, then SIGKILL; reap."""
        self.signal(child, signal.SIGTERM)
        done = self.reap(child, timeout)
        if done is None:
            self.signal(child, signal.SIGKILL)
            done = self.reap(child, None)
        return done

    def kill(self, child: Child) -> Exit:
        """SIGKILL the child's process group and reap it."""
        self.signal(child, signal.SIGKILL)
        return self.reap(child, None)

    def close(self) -> int:
        """Kill and reap whatever is still running; return the survivor count.

        A survivor is a started process group that still has a member after
        its leader was reaped (something it forked outlived it).
        """
        for child in self._started:
            if child.exit is None:
                self.kill(child)
            if child.proc.stdout is not None:
                child.proc.stdout.close()
        survivors = 0
        for child in self._started:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                continue
            survivors += 1
            os.killpg(child.pid, signal.SIGKILL)
        return survivors
