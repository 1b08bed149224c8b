"""The system under test as seen from outside: processes, memory, leaks.

``repro serve`` runs as a child process launched from the checkout's
``src``.  A sampler thread walks the process tree under a root pid through
``/proc`` to record peak memory (resident set sizes summed over the tree;
``statm`` is cheap to read, so sampling barely loads the cores it
measures) and every descendant it saw, which the orphan check revisits
after shutdown.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import traffic as tr

SHM_DIR = "/dev/shm"
START_TIMEOUT_S = 120.0
QUERY_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0
#: How long descendants may take to exit after their root did.
ORPHAN_GRACE_S = 5.0

_LEAK_WARNING = re.compile(r"There appear to be (\d+) leaked shared_memory")


def shm_names() -> "set[str]":
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _stat(pid: int) -> "tuple[int, int, str] | None":
    """(ppid, start time, state) of a live process, or None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    fields = raw[raw.rfind(")") + 2:].split()
    return int(fields[1]), int(fields[19]), fields[0]


def descendants(root: int) -> "dict[int, int]":
    """pid -> start time of every live descendant of ``root``."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        info = _stat(int(name))
        if info is not None:
            children.setdefault(info[0], []).append((int(name), info[1]))
    out: dict[int, int] = {}
    todo = [root]
    while todo:
        for pid, start in children.get(todo.pop(), ()):
            if pid not in out:
                out[pid] = start
                todo.append(pid)
    return out


_PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024


def rss_kib(pid: int) -> int:
    """Resident set size of one process (KiB); 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_KIB
    except (OSError, ValueError, IndexError):
        return 0


def alive(pid: int, start: int) -> bool:
    info = _stat(pid)
    return info is not None and info[1] == start and info[2] != "Z"


class TreeSampler:
    """Samples the memory of a process tree until stopped."""

    def __init__(self, root: int, interval: float = 0.2):
        self.root = root
        self.interval = interval
        self.peak_kib = 0
        self.samples = 0
        self.seen: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def sample(self) -> None:
        tree = descendants(self.root)
        self.seen.update(tree)
        total = rss_kib(self.root) + sum(rss_kib(pid) for pid in tree)
        self.peak_kib = max(self.peak_kib, total)
        self.samples += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_kib / 1024.0

    def survivors(self, ignore=lambda pid: False) -> "list[int]":
        """Descendants seen earlier that are still running."""
        return [
            pid for pid, start in self.seen.items()
            if alive(pid, start) and not ignore(pid)
        ]


def reap_orphans(sampler: TreeSampler, ignore=lambda pid: False) -> int:
    """Wait for the tree's descendants to exit; kill and count stragglers."""
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        left = sampler.survivors(ignore)
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return len(left)


def is_resource_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"resource_tracker" in fh.read()
    except OSError:
        return False


def stop_resource_tracker() -> None:
    """Stop and wait for the shared-memory resource tracker, if the engines
    in this process started one (it would otherwise outlive the run
    briefly, until it notices its parent is gone)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Connection:
    """One client connection speaking the newline-delimited JSON protocol."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.settimeout(QUERY_TIMEOUT_S)
        self.reader = self.sock.makefile("rb")

    def send(self, request: dict) -> None:
        self.sock.sendall(json.dumps(request).encode() + b"\n")

    def receive(self) -> bytes:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def call(self, request: dict) -> dict:
        self.send(request)
        return json.loads(self.receive())

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """One ``repro serve`` launch with the workloads' flags."""

    def __init__(self, root: Path):
        self.stderr_lines: list[str] = []
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *tr.SERVE_FLAGS],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self.sampler = TreeSampler(self.proc.pid)
        self._lines: queue.Queue = queue.Queue()
        self._drains = [
            threading.Thread(target=self._drain, args=(self.proc.stdout, True)),
            threading.Thread(target=self._drain, args=(self.proc.stderr, False)),
        ]
        for t in self._drains:
            t.start()
        self.port = self._await_port()

    def _drain(self, stream, is_stdout: bool) -> None:
        for line in stream:
            if is_stdout:
                self._lines.put(line)
            else:
                self.stderr_lines.append(line)
        if is_stdout:
            self._lines.put(None)

    def _await_port(self) -> int:
        try:
            line = self._lines.get(timeout=START_TIMEOUT_S)
        except queue.Empty:
            line = None
        match = line and re.search(r"listening on [\d.]+:(\d+)", line)
        if not match:
            self.kill()
            raise RuntimeError(
                "repro serve did not start: " + "".join(self.stderr_lines[-20:])
            )
        return int(match.group(1))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.sampler.stop()
        for t in self._drains:
            t.join()

    def shutdown(self, shm_before: "set[str]") -> dict:
        """Stop the server with the protocol's ``shutdown`` command.

        Returns ``{"clean_exit", "leaked_shm_segments", "orphan_processes"}``:
        the server must exit on its own within ``SHUTDOWN_TIMEOUT_S``, and
        neither shared-memory segments nor descendants may outlive it.
        """
        clean = True
        try:
            conn = Connection(self.port)
            try:
                clean = bool(conn.call({"cmd": "shutdown"}).get("bye"))
            finally:
                conn.close()
            self.proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            clean = False
        self.sampler.sample()
        self.kill()
        orphans = reap_orphans(self.sampler)
        reported = sum(
            int(m.group(1))
            for line in self.stderr_lines
            for m in [_LEAK_WARNING.search(line)] if m
        )
        left = len(shm_names() - shm_before)
        return {
            "clean_exit": clean and self.proc.returncode == 0,
            "leaked_shm_segments": max(left, reported),
            "orphan_processes": orphans,
        }
