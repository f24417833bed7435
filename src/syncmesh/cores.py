"""The process's second core: one helper process that runs jobs for it.

On a host with two usable CPUs, a process hands one job at a time to a
second interpreter while it does other work, then reads the reply. There
are three kinds of job:

- `PARSE`: `fastlz._parse_tail` of a FASTLZ body's tail, or of a whole
  body, for `fastlz.compress` and `fastlz.compress_all`;
- `ROWS`: `synthetic.rows_reply`, the synthetic rows of a list of sensors,
  for `bench.generate_synthetic`;
- `GZIP`: `zlib.compress(body, GZIP_LEVEL)`, a GZIP response body, for
  `payloads.PayloadOps`'s fan-out bodies.

The helper runs this file as `sys.executable -I -S`, and imports only the
module of each kind of job it is sent, without the package's `__init__`
and what it imports: `fastlz` and `synthetic` import only the stdlib and
this module, and `GZIP` needs `zlib` alone. It speaks length-prefixed
frames over its stdin and stdout, one each way per job: a request is the
job's kind, its body's length and its body; a reply is its length and its
bytes. The reply to each job is read before the next is sent, so neither
pipe can fill in both directions. A helper that cannot start, dies or
sends a bad frame is closed for good, and the caller does the work itself;
so does a helper sent a job it does not know or cannot read, which ends
its loop. Only the wall-clock time depends on it, never a byte. A `GZIP`
job saves some 6 ms, less than the helper's start costs (some 25 ms), so
it is sent only to a helper already `running`.
"""

from __future__ import annotations

import atexit
import os
import struct
import sys

PARSE = 0  # a FASTLZ tail, for `fastlz._parse_tail`
ROWS = 1  # a rows request, for `synthetic.rows_reply`
GZIP = 2  # a GZIP body, for `zlib.compress` at `GZIP_LEVEL`
GZIP_LEVEL = 6  # zlib's level for every GZIP body (`wire.compress`)
MAX_REPLY = 64 * 1024 * 1024  # the most bytes a reply frame may hold
_REQUEST = struct.Struct(">BQ")  # a job's kind and its body's length
_REPLY = struct.Struct(">Q")  # a reply's length, then its bytes


class Helper:
    """The second interpreter that runs one job at a time for this
    process: the reply to each job is read before the next is sent.

    Its process starts on the first job it is sent, and only on a host with
    two or more usable CPUs; it serves until `close`. This module keeps
    one, `helper`, which an `atexit` hook closes, so none outlives the
    interpreter. In a forked child it lets go of its parent's process
    (`_disown`), and starts its own if a job needs one: frames from two
    processes on one pipe would hand a caller another's reply, and the
    child's exit would stop its parent's helper. A helper that cannot
    start, dies or sends a bad frame is closed for good: `send` then
    declines, and every caller does its work on one core."""

    def __init__(self):
        self._proc = None  # the subprocess.Popen, once started
        self._closed = False

    def send(self, job: int, body) -> bool:
        """Hand the helper a job of kind `job` on `body` (bytes, or a
        memoryview of them); False if it cannot take it."""
        if self._closed:
            return False
        try:
            if self._proc is None:
                if _usable_cpus() < 2:
                    self._closed = True
                    return False
                # Imported here: the helper runs this file, and would take
                # some 10 ms longer to start with subprocess imported.
                import subprocess
                self._proc = subprocess.Popen(
                    [sys.executable, "-I", "-S", __file__],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL)
            stdin = self._proc.stdin
            stdin.write(_REQUEST.pack(job, len(body)))
            stdin.write(body)
            stdin.flush()
        except (OSError, ValueError):
            self.close()
            return False
        return True

    @property
    def running(self) -> bool:
        """Whether its process has started and not been closed: a job that
        saves less than the helper's start costs is sent only then."""
        return self._proc is not None

    def reply(self, read):
        """`read` of the reply to the job last sent; None, with the helper
        closed, if the helper failed or `read` finds the reply bad (raises
        ValueError or `struct.error`)."""
        try:
            return read(self._read())
        except (OSError, ValueError, struct.error):
            self.close()
            return None

    def _read(self) -> bytes:
        stdout = self._proc.stdout
        head = stdout.read(_REPLY.size)
        if len(head) != _REPLY.size:
            raise ValueError("helper closed its output")
        (size,) = _REPLY.unpack(head)
        if size > MAX_REPLY:
            raise ValueError(f"helper frame of {size} bytes")
        body = stdout.read(size)
        if len(body) != size:
            raise ValueError("helper frame cut short")
        return body

    def close(self) -> None:
        """Stop the helper's process, if it started, and wait for it."""
        self._closed = True
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.kill()
        proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # bytes it never took
                pass

    def _disown(self) -> None:
        """Let go of a process this interpreter did not start, as a forked
        child's copy of its parent's helper: close this side's copies of its
        pipes, and neither stop the process nor wait for it."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.stdin.close()  # every `send` flushes, so nothing is written
        proc.stdout.close()
        # Only its parent can wait for it; dropped unwaited, a Popen warns.
        import warnings  # here, as `subprocess` is, for the helper's start
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResourceWarning)
            del proc


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the host's, off Linux."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


helper = Helper()
atexit.register(lambda: helper.close())
os.register_at_fork(after_in_child=lambda: helper._disown())


def _answer(job: int, body: bytes) -> bytes:
    """The helper's reply to one job; ValueError for a job it does not
    know. Each kind's module is imported by the first job of that kind."""
    if job == PARSE:
        from .fastlz import _parse_tail
        return _parse_tail(body)
    if job == ROWS:
        from .synthetic import rows_reply
        return rows_reply(body)
    if job == GZIP:
        import zlib
        return zlib.compress(body, GZIP_LEVEL)
    raise ValueError(f"unknown job {job}")


def _serve(stdin, stdout) -> None:
    """The helper's loop: for each request frame, write its reply frame;
    return when the input ends, or at a job it does not know or cannot
    read."""
    while True:
        head = stdin.read(_REQUEST.size)
        if len(head) != _REQUEST.size:
            return
        job, size = _REQUEST.unpack(head)
        body = stdin.read(size)
        if len(body) != size:
            return
        try:
            reply = _answer(job, body)
        except ValueError:
            return
        stdout.write(_REPLY.pack(len(reply)))
        stdout.write(reply)
        stdout.flush()


if __name__ == "__main__":
    # The helper imports the jobs' modules as the package's, by their
    # relative names, but without running the package's `__init__`, which
    # imports every module (some 40 ms more at start).
    package = type(sys)("syncmesh")
    package.__path__ = [os.path.dirname(os.path.abspath(__file__))]
    sys.modules["syncmesh"] = package
    from syncmesh.cores import _serve
    _serve(sys.stdin.buffer, sys.stdout.buffer)
