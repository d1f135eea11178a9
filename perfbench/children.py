"""``repro serve`` / ``repro gateway`` child processes, started and reaped.

Every child binds port 0 and announces its address on a ``serving on
host:port`` line, so two benchmark runs never race for a port.  Each
child leads its own process group: stopping it sends SIGTERM (the
server drains and reaps its own worker pool), waits, and then kills the
whole group so no forked worker can outlive the benchmark.
"""

from __future__ import annotations

import ctypes
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from typing import List

_SERVING = re.compile(rb"serving on ([^\s:]+):(\d+)")

# settings the program reads from the environment; the benchmark clears
# them and passes everything it wants on the command line instead
PROGRAM_ENV = (
    "CAQR_CACHE_DIR", "CAQR_CALIB_BANDS", "CAQR_WORKERS_MODE",
    "CAQR_AUTH_TOKEN", "CAQR_REQUEST_LOG",
)


class Children:
    """The server processes of one benchmark run."""

    def __init__(self, root: str, src_dir: str, log_dir: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.log_dir = log_dir
        self.procs: List[subprocess.Popen] = []
        self._preexec = None
        if sys.platform == "linux":
            # SIGTERM each child if the benchmark is killed outright and no
            # finally block runs (prctl PR_SET_PDEATHSIG)
            prctl = ctypes.CDLL(None).prctl
            self._preexec = lambda: prctl(1, signal.SIGTERM)

    def start(self, name: str, args: List[str], timeout: float = 60.0) -> str:
        """Start ``python -m repro <args>``; return its base URL once bound."""
        log = open(os.path.join(self.log_dir, f"{name}.log"), "ab")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args, "--port", "0"],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log, start_new_session=True,
                preexec_fn=self._preexec,
            )
        finally:
            log.close()
        self.procs.append(proc)
        buffer = b""
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                match = _SERVING.search(buffer)
                if match:
                    host, port = match.group(1).decode(), match.group(2).decode()
                    return f"http://{host}:{port}"
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError(f"{name} did not announce its port in {timeout}s")
                chunk = os.read(proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"{name} exited with {proc.wait()} before serving "
                        f"(see {self.log_dir}/{name}.log)"
                    )
                buffer += chunk

    def stop_all(self, grace: float = 15.0) -> None:
        """Stop every child, newest first, and wait for each to end."""
        while self.procs:
            proc = self.procs.pop()
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(grace)
                except subprocess.TimeoutExpired:
                    pass
            try:
                # the group outlives its leader if a worker was orphaned
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
            proc.stdout.close()
