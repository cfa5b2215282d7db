"""Child processes of the benchmark: one-shot CLI runs and the serve daemon.

Every child is reaped with `os.wait4`, so its peak resident set and CPU
time come back with its exit status. Nothing is left running: the daemon
is drained over the wire, and killed only if it does not stop in time.
"""

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time


class Exited:
    """Exit status and resource use of a reaped child."""

    def __init__(self, status, rusage):
        self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = rusage.ru_maxrss
        self.cpu_s = rusage.ru_utime + rusage.ru_stime


def reap(proc, timeout_s):
    """Waits up to `timeout_s` for `proc`, killing it past that."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, rusage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, rusage
        time.sleep(0.002)


def run(argv, timeout_s=150, capture=False):
    """Runs one command to completion; returns (Exited, stdout text)."""
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=sys.stderr,
        text=True,
    )
    out = proc.stdout.read() if capture else ""
    status, rusage = reap(proc, timeout_s)
    return Exited(status, rusage), out


class Daemon:
    """`mclegal serve` as a child process on a loopback port."""

    def __init__(self, binary, args, ready_timeout_s=30):
        self.proc = subprocess.Popen(
            [binary, "serve", "--addr", "127.0.0.1:0", *args],
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
        )
        self.exited = None
        self.addr = None
        ready, _, _ = select.select([self.proc.stdout], [], [], ready_timeout_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("LISTENING "):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.split()[1].rsplit(":", 1)
        self.addr = (host, int(port))

    def client(self):
        return Client(self.addr)

    def cpu_seconds(self):
        """User + system CPU seconds the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout_s=60):
        """Drains the daemon and reaps it; returns its `Exited` record."""
        if self.exited is not None:
            return self.exited
        try:
            with Client(self.addr) as c:
                c.request({"op": "drain"})
        except (OSError, TypeError, ValueError):
            # Not listening (yet, or any more): SIGTERM drains the same way.
            self.proc.send_signal(signal.SIGTERM)
        status, rusage = reap(self.proc, timeout_s)
        self.proc.stdout.close()
        self.exited = Exited(status, rusage)
        return self.exited


class Client:
    """Newline-delimited JSON over one TCP connection."""

    def __init__(self, addr, timeout_s=150):
        self.sock = socket.create_connection(addr, timeout=timeout_s)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def __enter__(self):
        return self

    def __exit__(self, *_):
        self.close()

    def send(self, obj):
        self.file.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self.file.flush()

    def recv(self):
        line = self.file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def request(self, obj):
        self.send(obj)
        return self.recv()

    def close(self):
        self.file.close()
        self.sock.close()
