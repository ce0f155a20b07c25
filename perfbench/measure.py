"""Wall-clock measurement: spawned commands, the serve client, statistics.

Every time here is time.perf_counter() (monotonic wall clock) around a
whole process or a whole request. Process CPU time is never read: the
threaded paths (`run`, `stream`, `trial --jobs`, serve) would hide their
waiting from it.
"""

import os
import selectors
import signal
import time


# ------------------------------------------------------------- statistics


def tail(samples, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples above). With sorted samples
    x[0..n-1], x[n-1-beyond] has exactly `beyond` samples above it and
    sits at percentile 100*(n-beyond)/n. When that rank would not lie
    above the median (n < 2*beyond + 1), no tail is resolvable and the
    maximum is returned, with the count of samples above it (0).
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * beyond + 1:
        return xs[-1], 100.0, 0
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return ok

    @property
    def ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


# --------------------------------------------------------------- commands


class Spawned:
    """One finished command: exit code, wall seconds, peak RSS, output."""

    def __init__(self, code, wall, rss_kb, out, err):
        self.code = code
        self.wall = wall
        self.rss_kb = rss_kb
        self.out = out
        self.err = err


def run(argv, scratch):
    """Runs argv to completion and times it from spawn to exit.

    stdout/stderr go to files under `scratch` and are read after the
    clock stops; os.wait4 reports the child's own peak resident set.
    """
    out_path = os.path.join(scratch, "cmd.out")
    err_path = os.path.join(scratch, "cmd.err")
    in_path = os.path.join(scratch, "cmd.in")
    if not os.path.exists(in_path):
        open(in_path, "w").close()
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, in_path, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(out_path, encoding="utf-8") as f:
        out = f.read()
    with open(err_path, encoding="utf-8") as f:
        err = f.read()
    return Spawned(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss,
                   out, err)


# ------------------------------------------------------------------ serve


class Serve:
    """A `banger serve` process over stdio, driven from one thread.

    Requests are written and responses read through non-blocking pipes
    multiplexed with a selector, so a large request line never stalls
    the reading of responses (and the reverse).
    """

    def __init__(self, exe, jobs, err_path):
        in_r, self.w = os.pipe()
        self.r, out_w = os.pipe()
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_DUP2, in_r, 0),
                   (os.POSIX_SPAWN_DUP2, out_w, 1),
                   (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
        self.spawned_at = time.perf_counter()
        self.pid = os.posix_spawn(exe, [exe, "serve", "--jobs", str(jobs)],
                                  os.environ, file_actions=actions)
        os.close(in_r)
        os.close(out_w)
        os.set_blocking(self.w, False)
        os.set_blocking(self.r, False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.r, selectors.EVENT_READ)
        self.pending = []  # byte chunks not yet written
        self.inbuf = bytearray()
        self.responses = []  # (perf_counter at read, raw line)
        self.rss_kb = 0
        self.code = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        """On an error path, stops the server at once and reaps it."""
        if self.code is None:
            os.kill(self.pid, signal.SIGKILL)
            os.wait4(self.pid, 0)
            self.code = -signal.SIGKILL

    def send(self, line):
        self.pending.append(memoryview((line + "\n").encode()))

    def _flush(self):
        while self.pending:
            try:
                k = os.write(self.w, self.pending[0])
            except BlockingIOError:
                return
            if k == len(self.pending[0]):
                self.pending.pop(0)
            else:
                self.pending[0] = self.pending[0][k:]

    def poll(self, timeout):
        """Writes what it can, waits up to `timeout` seconds for output,
        and collects complete response lines."""
        self._flush()
        writing = bool(self.pending)
        if writing:
            self.sel.register(self.w, selectors.EVENT_WRITE)
        events = self.sel.select(max(0.0, timeout))
        if writing:
            self.sel.unregister(self.w)
        now = time.perf_counter()
        for key, _ in events:
            if key.fd != self.r:
                continue
            while True:
                try:
                    chunk = os.read(self.r, 1 << 20)
                except BlockingIOError:
                    break
                if not chunk:
                    raise EOFError("banger serve closed its output")
                self.inbuf += chunk
            while True:
                cut = self.inbuf.find(b"\n")
                if cut < 0:
                    break
                self.responses.append((now, bytes(self.inbuf[:cut])))
                del self.inbuf[:cut + 1]
        self._flush()

    def wait_for(self, count, timeout=120.0):
        """Polls until `count` responses have arrived in total."""
        deadline = time.perf_counter() + timeout
        while len(self.responses) < count:
            if time.perf_counter() > deadline:
                raise TimeoutError("banger serve did not answer in time")
            self.poll(0.05)

    def request(self, line):
        """Sends one line and waits for its response (synchronous)."""
        self.send(line)
        self.wait_for(len(self.responses) + 1)
        return self.responses[-1]

    def open_loop(self, lines, rate):
        """Sends lines[i] when it falls due at start + i/rate, regardless
        of responses. Returns (due times, generator lateness per request,
        backlog when the last request fell due)."""
        base = len(self.responses)
        start = time.perf_counter() + 0.02
        due = [start + i / rate for i in range(len(lines))]
        late = []
        backlog = 0
        sent = 0
        while sent < len(lines):
            now = time.perf_counter()
            while sent < len(lines) and due[sent] <= now:
                late.append(now - due[sent])
                self.send(lines[sent])
                sent += 1
            if sent == len(lines):
                self._flush()
                backlog = sent - (len(self.responses) - base)
                break
            self.poll(due[sent] - time.perf_counter())
        self.wait_for(base + len(lines))
        return due, late, backlog

    def closed_loop(self, lines, window):
        """Sends every line, keeping `window` requests in flight.
        Returns the start time."""
        base = len(self.responses)
        start = time.perf_counter()
        sent = 0
        while sent < len(lines):
            while sent < len(lines) and sent - (len(self.responses) - base) < window:
                self.send(lines[sent])
                sent += 1
            self.poll(0.05)
        self.wait_for(base + sent)
        return start

    def close(self):
        """Closes stdin (the server exits at EOF) and reaps the process."""
        self.sel.close()
        os.close(self.w)
        while True:
            try:
                chunk = os.read(self.r, 1 << 20)
            except BlockingIOError:
                time.sleep(0.01)
                continue
            if not chunk:
                break
        os.close(self.r)
        _, status, usage = os.wait4(self.pid, 0)
        self.code = os.waitstatus_to_exitcode(status)
        self.rss_kb = usage.ru_maxrss
        return self.code
