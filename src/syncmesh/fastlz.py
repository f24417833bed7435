"""A small byte-oriented LZ77 codec with no entropy coding stage.

Token stream format (self-contained, versionless):

  literal run   0b000LLLLL                      -> L+1 literal bytes follow (1..32)
  short match   0bMMMOOOOO offlow               -> length M+2 (3..8),
                                                   distance ((OOOOO<<8)|offlow)+1
  long match    0b111OOOOO extra offlow         -> length extra+9 (9..264),
                                                   distance ((OOOOO<<8)|offlow)+1

Distances are limited to 8192; longer matches are split into multiple tokens.
Compression is greedy over a single-entry table keyed by each 3-byte
sequence, so output is never optimal but always decodes to the input exactly.
The table holds every position the scan visits, plus the last position of
each match. A match found there whose 4th byte differs (over a third of them
in reading JSON) is settled as 3 bytes by one byte compare. A longer one is
extended 32 bytes at a time: the two runs are read as little-endian integers
and XOR-ed, and the lowest set bit of a non-zero result marks the first byte
that differs. This finds the same lengths as a byte-by-byte scan with far
fewer interpreter steps, so the token stream is the one the byte-wise
compressor wrote.

Two cores. Handed a `Helper`, `compress` parses a body of at least
`SPLIT_MIN_BYTES` in two segments at once, on a host with two usable CPUs.
The helper, a second interpreter running this file, parses the tail
[x, n) from an empty table; this process parses [0, x), then parses on
past x until the two parses provably agree, and takes the helper's tokens
from there on. The splice is exact:

- The table holds, for each 3-byte key, the last inserted position.
  Inserts are every scanned position and every match tail, in increasing
  order.
- A lookup at `pos` rejects any candidate more than 8192 bytes back.
- Take a position p that both parses reach as a token start with no
  pending literals: it ends a match in both. Suppose both parses scanned
  exactly the same positions over [q, p), with p - q >= 8192; here q ends a
  match in both, and both made the same matches (start and end) in between.
- Then for every key both tables hold the same position in [q, p), or both
  hold one before q or none, which no lookup from p on accepts. Every
  lookup from p on sees the same candidates in both parses, so every later
  token and insert is the same.
- So the output is this process's bytes up to p followed by the helper's
  bytes from p on.
- If no such p turns up within `_WINDOW` bytes past x, this process parses
  on to n alone. The output is still exact; only the helper's work is lost.

The output is the one-core stream, so the split costs no ratio; on reading
JSON the two parses provably agree some 22-56 KB past x. The helper speaks
length-prefixed frames over its stdin and stdout, with marks sent as
packed integers; a helper that cannot start, dies or sends a bad frame is
closed, and `compress` parses alone. Only the wall-clock time depends on
it, never a byte.

Decompression writes at most `MAX_OUTPUT` bytes: a stream that would write
more raises ValueError before it does, so a few hundred bytes of long-match
tokens cannot grow into gigabytes. The largest body a benchmark sends is
about 3.3 MB.
"""

from __future__ import annotations

import os
import struct
import sys

_MAX_DISTANCE = 8192
_MAX_LITERAL_RUN = 32
_MAX_MATCH = 264
_MIN_MATCH = 3
_WORD = 32  # bytes compared per step when extending a match
MAX_OUTPUT = 64 * 1024 * 1024  # most bytes any codec's decompress writes
SPLIT_MIN_BYTES = 192 * 1024  # the smallest body parsed on two cores
_WINDOW = 64 * 1024  # how far past the split the two parses must agree
_STEP = 2048  # bytes parsed between two looks for agreement
_FRAME = struct.Struct(">Q")  # a frame's length, then its bytes


def compress(data: bytes, helper: "Helper | None" = None) -> bytes:
    """The token stream of `data`. Given a `Helper`, a body of at least
    `SPLIT_MIN_BYTES` is parsed on two cores, as the module docstring
    describes; the bytes are the same either way."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("expected bytes")
    data = bytes(data)
    n = len(data)
    if n < _MIN_MATCH + 1:
        return _emit_all_literals(data)
    if helper is not None and n >= SPLIT_MIN_BYTES:
        return _compress(data, helper, (n - _WINDOW // 2) // 2, _WINDOW)
    return _compress(data)


def _compress(data: bytes, helper=None, split: int = 0, window: int = 0) -> bytes:
    """The token stream of `data`, with the tail from `split` on parsed by
    `helper` if it takes it; the two parses must agree within `window`
    bytes past `split`. This process parses half the window past `split`
    before it waits for the helper, since they rarely agree sooner."""
    n = len(data)
    out = bytearray()
    table: dict[bytes, int] = {}
    pos = lit_start = 0
    if helper is not None and helper.send(data, split, window):
        pos, lit_start = _parse(data, 0, split, table, out, 0, None)
        mine: list[int] = []
        pos, lit_start = _parse(data, pos, split + window // 2, table, out,
                                lit_start, mine)
        reply = helper.reply()
        if reply is not None:
            theirs, tail = reply
            pos, lit_start, splice = _parse_to_agreement(
                data, split, window, table, out, pos, lit_start, mine, theirs)
            if splice is not None:
                del out[splice[0]:]
                out += memoryview(tail)[splice[1]:]
                return bytes(out)
    pos, lit_start = _parse(data, pos, n, table, out, lit_start, None)
    _flush_literals(out, data, lit_start, n)
    return bytes(out)


def _parse(data: bytes, pos: int, stop: int, table: dict, out: bytearray,
           lit_start: int, marks: list | None) -> tuple[int, int]:
    """Append the tokens of the scan from `pos` to `out`, until the scan
    reaches `stop` (or the last position that can start a match); returns
    where the scan stopped and where its pending literals start. With a
    `marks` list, each match adds its start, its end and the length of
    `out` after it."""
    append = out.append
    lookup = table.get
    from_bytes = int.from_bytes
    n = len(data)
    # The loop runs once per token or unmatched byte: keep its names local.
    min_match, max_match, max_run, max_distance, word = (
        _MIN_MATCH, _MAX_MATCH, _MAX_LITERAL_RUN, _MAX_DISTANCE, _WORD)
    # Last two positions cannot start a 3-byte match.
    limit = n - 2
    if stop > limit:
        stop = limit
    while pos < stop:
        key = data[pos : pos + 3]
        candidate = lookup(key)
        table[key] = pos
        if candidate is None or pos - candidate > max_distance:
            pos += 1
            continue
        # The key is the 3 bytes themselves, so candidate starts the same 3
        # bytes. A 4th byte that differs (or is past the end) settles a
        # 3-byte match; otherwise extend a word at a time, as the module
        # docstring describes.
        max_len = n - pos
        if max_len > min_match and data[candidate + 3] == data[pos + 3]:
            length = 4
            while length < max_len:
                width = max_len - length
                if width > word:
                    width = word
                a = candidate + length
                b = pos + length
                diff = (from_bytes(data[a : a + width], "little")
                        ^ from_bytes(data[b : b + width], "little"))
                if diff:
                    length += ((diff & -diff).bit_length() - 1) >> 3
                    break
                length += width
        else:
            length = min_match
        if pos != lit_start:
            run = pos - lit_start
            if run > max_run:
                _flush_literals(out, data, lit_start, pos)
            else:
                append(run - 1)
                out += data[lit_start:pos]
        offset = pos - candidate - 1
        if length <= 8:
            append(((length - 2) << 5) | (offset >> 8))
            append(offset & 0xFF)
        elif length <= max_match:
            append(0xE0 | (offset >> 8))
            append(length - 9)
            append(offset & 0xFF)
        else:
            _emit_match(out, length, offset + 1)
        # Seed the table at the match tail so adjacent repeats stay findable.
        tail = pos + length - 1
        if tail < limit:
            table[data[tail : tail + 3]] = tail
        if marks is not None:
            marks += (pos, pos + length, len(out))
        pos += length
        lit_start = pos
    return pos, lit_start


def _parse_to_agreement(data: bytes, split: int, window: int, table: dict,
                        out: bytearray, pos: int, lit_start: int,
                        mine: list, theirs) -> tuple[int, int, tuple | None]:
    """Parse on from `pos`, `_STEP` bytes at a time and at most `window`
    bytes past `split`, until this parse and the helper's provably agree.
    `mine` and `theirs` hold (start, end, length of the stream after it)
    for each match of this parse from `split` on and of the helper's, whose
    positions count from `split`. Returns where the scan stopped, its
    literal start, and the splice: the lengths of `out` and of the helper's
    stream at the first match end p where both parses made the same matches
    over [q, p), for a match end q of both with p - q >= 8192; or None if
    there is none in the window."""
    at = dict(zip(theirs[0::3], range(0, len(theirs), 3)))
    end = min(split + window, len(data) - 2)
    run = None  # (q, its index in mine, in theirs) of the matches in common
    i = 0
    while True:
        while i < len(mine):
            start, stop = mine[i], mine[i + 1]
            k = at.get(start - split)
            if k is None or theirs[k + 1] != stop - split:
                run = None
            elif run is None or k - run[2] != i - run[1]:
                run = (stop, i, k)
            elif stop - run[0] >= _MAX_DISTANCE:
                return pos, lit_start, (mine[i + 2], theirs[k + 2])
            i += 3
        if pos >= end:
            return pos, lit_start, None
        pos, lit_start = _parse(data, pos, min(pos + _STEP, end), table, out,
                                lit_start, mine)


def _parse_tail(tail: bytes, window: int) -> tuple[bytes, bytearray]:
    """The helper's reply for a tail: the marks of its matches within
    `window` bytes, packed, and its token stream."""
    out = bytearray()
    table: dict[bytes, int] = {}
    marks: list[int] = []
    pos, lit_start = _parse(tail, 0, window, table, out, 0, marks)
    pos, lit_start = _parse(tail, pos, len(tail), table, out, lit_start, None)
    _flush_literals(out, tail, lit_start, len(tail))
    return struct.pack(f"{len(marks)}q", *marks), out


class Helper:
    """The second interpreter that parses the tail of a large body for
    `compress`, one body at a time.

    Its process, `sys.executable -I -S` running this file, starts on the
    first body it is sent, and only on a host with two or more usable CPUs;
    it serves until `close`. Whoever creates one closes it, so no process
    outlives its owner. A helper that cannot start, dies or sends a bad
    frame is closed for good: `send` then declines, and every body is
    parsed on one core."""

    def __init__(self):
        self._proc = None  # the subprocess.Popen, once started
        self._closed = False

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def send(self, data: bytes, split: int, window: int) -> bool:
        """Hand the helper `data[split:]` and the window its marks cover;
        False if it cannot take them."""
        if self._closed:
            return False
        try:
            if self._proc is None:
                if len(os.sched_getaffinity(0)) < 2:
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
            stdin.write(_FRAME.pack(len(data) - split + _FRAME.size))
            stdin.write(_FRAME.pack(window))
            stdin.write(memoryview(data)[split:])
            stdin.flush()
        except (OSError, ValueError):
            self.close()
            return False
        return True

    def reply(self) -> tuple[memoryview, bytes] | None:
        """The helper's marks and token stream for the tail last sent, as
        `_parse_tail` writes them; None if the helper failed."""
        try:
            marks = memoryview(self._read()).cast("q")
            if len(marks) % 3:
                raise ValueError("marks frame is not whole marks")
            return marks, self._read()
        except (OSError, ValueError, TypeError):
            self.close()
            return None

    def _read(self) -> bytes:
        stdout = self._proc.stdout
        head = stdout.read(_FRAME.size)
        if len(head) != _FRAME.size:
            raise ValueError("helper closed its output")
        (size,) = _FRAME.unpack(head)
        if size > MAX_OUTPUT:
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


def _serve(stdin, stdout) -> None:
    """The helper's loop: for each request frame (window, tail), write its
    two reply frames; return when the input ends."""
    while True:
        head = stdin.read(_FRAME.size)
        if len(head) != _FRAME.size:
            return
        (size,) = _FRAME.unpack(head)
        request = stdin.read(size)
        if len(request) != size or size < _FRAME.size:
            return
        (window,) = _FRAME.unpack_from(request)
        for reply in _parse_tail(request[_FRAME.size:], window):
            stdout.write(_FRAME.pack(len(reply)))
            stdout.write(reply)
        stdout.flush()


def decompress(data: bytes) -> bytes:
    out = bytearray()
    n = len(data)
    cap = MAX_OUTPUT
    i = 0
    while i < n:
        ctrl = data[i]
        i += 1
        tag = ctrl >> 5
        if tag == 0:
            run = (ctrl & 0x1F) + 1
            if i + run > n:
                raise ValueError("truncated literal run")
            if len(out) + run > cap:
                raise ValueError(f"decompressed output passes {cap} bytes")
            out += data[i : i + run]
            i += run
        else:
            if tag == 7:
                if i + 2 > n:
                    raise ValueError("truncated long match")
                length = data[i] + 9
                distance = (((ctrl & 0x1F) << 8) | data[i + 1]) + 1
                i += 2
            else:
                if i + 1 > n:
                    raise ValueError("truncated short match")
                length = tag + 2
                distance = (((ctrl & 0x1F) << 8) | data[i]) + 1
                i += 1
            start = len(out) - distance
            if start < 0:
                raise ValueError("match distance exceeds output")
            if len(out) + length > cap:
                raise ValueError(f"decompressed output passes {cap} bytes")
            if distance >= length:
                out += out[start : start + length]
            else:
                for k in range(length):
                    out.append(out[start + k])
    return bytes(out)


def _emit_all_literals(data: bytes) -> bytes:
    out = bytearray()
    _flush_literals(out, data, 0, len(data))
    return bytes(out)


def _flush_literals(out: bytearray, data: bytes, start: int, end: int) -> None:
    while start < end:
        run = min(_MAX_LITERAL_RUN, end - start)
        out.append(run - 1)
        out += data[start : start + run]
        start += run


def _emit_match(out: bytearray, length: int, distance: int) -> None:
    offset = distance - 1
    off_hi = offset >> 8
    off_lo = offset & 0xFF
    while length >= _MIN_MATCH:
        chunk = min(length, _MAX_MATCH)
        # Avoid leaving a 1-2 byte remainder no token can express.
        if length - chunk in (1, 2):
            chunk = length - _MIN_MATCH
        if chunk <= 8:
            out.append(((chunk - 2) << 5) | off_hi)
            out.append(off_lo)
        else:
            out.append(0xE0 | off_hi)
            out.append(chunk - 9)
            out.append(off_lo)
        length -= chunk


if __name__ == "__main__":
    _serve(sys.stdin.buffer, sys.stdout.buffer)
