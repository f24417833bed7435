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

Two cores. On a host with two usable CPUs, `compress` parses a body of at
least `SPLIT_MIN_BYTES` in two segments at once, and `compress_all`
compresses a list of bodies of at least that many bytes in all two bodies
at a time: the helper takes every second body whole while this process
compresses the one before it. A whole body is a tail from offset 0, so the
helper's tokens are the one-core stream, and the reach and anchor its reply
carries are the body's ending.

The helper is the process's one second interpreter (`cores.helper`), sent
`cores.PARSE` jobs. For a split body it parses the tail [x, n) from an
empty table; this process parses [0, x), then parses on past x
until the two parses provably agree, and takes the helper's tokens from
there on. Each parse's matches are read from its tokens, as `resume` reads
them (see Resume below). The splice is exact:

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
JSON the two parses provably agree some 22-56 KB past x. A job's body is
the tail, and its reply is the reach and anchor of the tail's ending,
packed, then its tokens (`_parse_tail`). One job at a time is with the
helper, its reply read before the next is sent. A helper that cannot
start, dies or sends a bad frame is closed for the process, and every
later body is compressed here alone. Only the wall-clock time depends on
it, never a byte.

Resume. `compress_ending` returns a body's stream as part of the `Ending`
of its parse, with a reach and an anchor: as the scan first enters the
body's last `_KEEP` (12 KiB) bytes, where its pending literals (or its
next token) start, and the stream's length there. The process that parses
those bytes notes them: this one, or the helper for a split body's tail,
whose reply carries them; this process shifts them by the split and the
splice, or takes the splice itself if the helper's reach lies before it.
`compress` is `compress_ending`'s stream. The tokens from the reach on
give every match made from there: consecutive match tokens of one
distance are one match that `_emit_match` split, since two matches in a
row never share a distance: the first stopped at a byte that differs
from the byte that distance back, and a second match of that distance
would begin by matching the two. `resume` takes a body D whose first d
bytes are those of a kept body K. It copies K's stream up to
r, the last match end in those tokens with r + 2 <= d; rebuilds the table
by replaying the inserts over [r - 8192, r) (every scanned position, every
match start and every match tail), with keys read from D; and parses D
from r to its end. If there is no such r, or r - 8192 lies before the
reach, D is compressed whole. The stream is the one `compress` writes
for D:

- The parse state at a scan position p depends only on data[:p+2]. That
  state is the stream written so far, `lit_start`, and every table entry
  that a lookup from p on can accept. A token before p was decided by the
  bytes before p and, for a match that ends at p, by the byte at p that
  stopped it; the last insert before p, that match's tail p - 1, is keyed
  by data[p-1:p+2].
- Lookups from p on accept only positions in [p - 8192, p). The inserts
  there are the ones the replay makes, in the same increasing order, so
  for every key the rebuilt table holds the position D's table would, or
  one that no lookup from p on accepts.
- At r, a match end (so `lit_start` is r) with r + 2 <= d, D's parse is
  therefore in K's state, and its tokens from r on are the tail's parse.

Decompression writes at most `MAX_OUTPUT` bytes: a stream that would write
more raises ValueError before it does, so a few hundred bytes of long-match
tokens cannot grow into gigabytes. The largest body a benchmark sends is
about 3.3 MB.
"""

from __future__ import annotations

import struct

from . import cores

_MAX_DISTANCE = 8192
_MAX_LITERAL_RUN = 32
_MAX_MATCH = 264
_MIN_MATCH = 3
_WORD = 32  # bytes compared per step when extending a match
MAX_OUTPUT = 64 * 1024 * 1024  # most bytes any codec's decompress writes
SPLIT_MIN_BYTES = 192 * 1024  # the smallest body parsed on two cores
_WINDOW = 64 * 1024  # how far past the split the two parses must agree
_STEP = 2048  # bytes parsed between two looks for agreement
_KEEP = 12 * 1024  # how far before a body's end its ending's reach lies
_ENDING = struct.Struct(">2Q")  # the reach and anchor a tail reply starts with


def compress(data: bytes) -> bytes:
    """The token stream of `data`. A body of at least `SPLIT_MIN_BYTES` is
    parsed on two cores, on a host with two usable CPUs, as the module
    docstring describes; the bytes are the same either way."""
    return compress_ending(data).stream


def compress_ending(data: bytes) -> "Ending":
    """`compress(data)`, as the stream of the `Ending` of its parse, which
    `resume` continues."""
    data = _as_bytes(data)
    n = len(data)
    if n >= SPLIT_MIN_BYTES:
        return _compress(data, max((n - _WINDOW // 2) // 2, 0))
    return _compress(data)


def resume(data: bytes, kept: "Ending", common: int) -> bytes | None:
    """The token stream of `data`, whose first `common` bytes are those of
    the body that `kept` ended, from `kept`'s stream up to r, the last
    match end past its reach with r + 2 <= common, and a parse of the rest
    over the table rebuilt from its matches; None if there is no such r or
    r - 8192 lies before the reach. The module docstring says why the bytes
    are `compress(data)`'s."""
    data = _as_bytes(data)
    n = len(data)
    matches = _matches(kept.stream, kept.anchor, kept.reach, common - 2)
    if not matches:
        return None
    r, length = matches[-2], matches[-1]
    start = max(r - _MAX_DISTANCE, 0)
    if start < kept.reach:
        return None
    table: dict[bytes, int] = {}
    scan = start  # the first position whose insert is not replayed yet
    for i in range(0, len(matches), 3):
        begin, end = matches[i], matches[i + 1]
        if end <= start:
            continue
        # The literals before the match and its start are scanned positions;
        # a match that begins before `start` leaves only its tail.
        for pos in range(scan, begin + 1):
            table[data[pos : pos + 3]] = pos
        table[data[end - 1 : end + 2]] = end - 1
        scan = end
    tail = bytearray()
    _, lit_start = _parse(data, r, n, table, tail, r)
    _flush_literals(tail, data, lit_start, n)
    return b"".join((memoryview(kept.stream)[:length], tail))


def _matches(stream: bytes, length: int, pos: int, stop: int) -> list[int]:
    """The start, end and stream length after each match that the tokens of
    `stream` from `length` on make, where the input stands at `pos`, up to
    the last one that ends by `stop`. Consecutive match tokens of one
    distance are one match, as the module docstring says."""
    found: list[int] = []
    distance = 0  # of the token just read; 0 after a literal run
    size = len(stream)
    while length < size and pos <= stop:
        ctrl = stream[length]
        if ctrl < 0x20:  # a literal run
            pos += ctrl + 1
            length += ctrl + 2
            distance = 0
            continue
        if ctrl < 0xE0:  # a short match
            match = (ctrl >> 5) + 2
            low = stream[length + 1]
            length += 2
        else:  # a long match
            match = stream[length + 1] + 9
            low = stream[length + 2]
            length += 3
        token_distance = ((ctrl & 0x1F) << 8 | low) + 1
        if token_distance == distance:  # the same match, split
            found[-2:] = pos + match, length
        else:
            found += (pos, pos + match, length)
        distance = token_distance
        pos += match
    # The match read last may end past `stop`; any before it ends by its start.
    if found and found[-2] > stop:
        del found[-3:]
    return found


class Ending:
    """The end of a body's parse, kept so that a body with the same prefix
    can `resume` it: `stream` is the body's token stream, `reach` the input
    position where one of its tokens starts, and `anchor` the length of the
    stream before that token. `resume` reads the tokens on from there."""

    __slots__ = ("stream", "reach", "anchor")

    def __init__(self, stream: bytes, reach: int, anchor: int):
        self.stream = stream
        self.reach = reach
        self.anchor = anchor


def compress_all(bodies) -> list["Ending"]:
    """`[compress_ending(b) for b in bodies]`. Two or more bodies of at
    least `SPLIT_MIN_BYTES` in all are compressed two at a time, on a host
    with two usable CPUs: every second body goes whole to the helper while
    this process compresses the body before it, and then the reply, which
    carries the reach and anchor of the body's ending, is read. A body the
    helper declines, or whose reply fails, is compressed here; the bytes
    and endings are the same either way."""
    bodies = [_as_bytes(body) for body in bodies]
    if len(bodies) < 2 or sum(map(len, bodies)) < SPLIT_MIN_BYTES:
        return [compress_ending(body) for body in bodies]
    out = []
    helper = cores.helper
    for mine, theirs in zip(bodies[0::2], bodies[1::2]):
        # The reply is read before the next send, and `mine` is compressed
        # on one core: only one body is ever with the helper.
        taken = helper.send(cores.PARSE, theirs)
        out.append(_compress(mine))
        reply = helper.reply(_ending) if taken else None
        out.append(_compress(theirs) if reply is None else Ending(*reply))
    if len(bodies) % 2:
        out.append(compress_ending(bodies[-1]))
    return out


def _as_bytes(data) -> bytes:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("expected bytes")
    return bytes(data)


def _compress(data: bytes, split: int | None = None) -> Ending:
    """The token stream of `data`, as the stream of its `Ending`; given a
    `split`, the tail from there on is parsed by the helper if it takes it,
    and the two parses must agree within `_WINDOW` bytes past `split`. This
    process parses half the window past `split`, and reads its matches
    there, before it waits for the helper, since they rarely agree sooner."""
    out = bytearray()
    table: dict[bytes, int] = {}
    pos = lit_start = 0
    helper = cores.helper
    if split is not None and helper.send(cores.PARSE,
                                         memoryview(data)[split:]):
        pos, lit_start = _parse(data, 0, split, table, out, 0)
        # An empty match where this parse's tokens past `split` begin; its
        # matches are read on from there.
        mine = [lit_start, lit_start, len(out)]
        pos, lit_start = _parse(data, pos, split + _WINDOW // 2, table, out,
                                lit_start)
        mine += _matches(out, mine[-1], mine[-2], pos)
        reply = helper.reply(_ending)
        if reply is not None:
            tokens, reach, anchor = reply
            pos, lit_start, splice = _parse_to_agreement(
                data, split, table, out, pos, lit_start, mine, tokens)
            if splice is not None:
                at, mine_length, their_length = splice
                del out[mine_length:]
                out += memoryview(tokens)[their_length:]
                if reach + split < at:  # the helper's reach is not spliced in
                    reach, anchor = at - split, their_length
                return Ending(bytes(out), reach + split,
                              anchor + mine_length - their_length)
    reach, anchor = _finish(data, pos, table, out, lit_start)
    return Ending(bytes(out), reach, anchor)


def _finish(data: bytes, pos: int, table: dict, out: bytearray,
            lit_start: int) -> tuple[int, int]:
    """Parse from `pos` to the end of `data` and flush the last literals;
    returns the reach and anchor of the ending: the start of the pending
    literals, or of the next token, at the first scan position in the last
    `_KEEP` bytes (or `pos`, if later), and the length of `out` there."""
    n = len(data)
    pos, lit_start = _parse(data, pos, n - _KEEP, table, out, lit_start)
    reach, anchor = lit_start, len(out)
    pos, lit_start = _parse(data, pos, n, table, out, lit_start)
    _flush_literals(out, data, lit_start, n)
    return reach, anchor


def _parse(data: bytes, pos: int, stop: int, table: dict, out: bytearray,
           lit_start: int) -> tuple[int, int]:
    """Append the tokens of the scan from `pos` to `out`, until the scan
    reaches `stop` (or the last position that can start a match); returns
    where the scan stopped and where its pending literals start."""
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
        pos += length
        lit_start = pos
    return pos, lit_start


def _parse_to_agreement(data: bytes, split: int, table: dict,
                        out: bytearray, pos: int, lit_start: int, mine: list,
                        tokens: bytes) -> tuple[int, int, tuple | None]:
    """Parse on from `pos`, `_STEP` bytes at a time and at most `_WINDOW`
    bytes past `split`, until this parse and the helper's provably agree.
    `mine` holds this parse's matches past `split`, as `_matches` reads
    them, after an empty one where its tokens there begin; the helper's
    `tokens` are read likewise, as far as this parse has reached. Returns
    where the scan stopped, its literal start, and the splice: the first
    match end p where both parses made the same matches over [q, p), for a
    match end q of both with p - q >= 8192, and the lengths there of `out`
    and of `tokens`; or None if there is none in the window."""
    theirs = [0, 0, 0]  # likewise, with positions counted from `split`
    end = min(split + _WINDOW, len(data) - 2)
    run = None  # (q, its index in mine, in theirs) of the matches in common
    i = j = 3  # the next match of each to compare, past the empty ones
    while True:
        theirs += _matches(tokens, theirs[-1], theirs[-2], pos - split)
        while i < len(mine):
            start, stop = mine[i] - split, mine[i + 1] - split
            while j < len(theirs) and theirs[j] < start:
                j += 3
            if j == len(theirs) or theirs[j] != start or theirs[j + 1] != stop:
                run = None
            elif run is None or j - run[2] != i - run[1]:
                run = (stop, i, j)
            elif stop - run[0] >= _MAX_DISTANCE:
                return pos, lit_start, (split + stop, mine[i + 2],
                                        theirs[j + 2])
            i += 3
        if pos >= end:
            return pos, lit_start, None
        pos, lit_start = _parse(data, pos, min(pos + _STEP, end), table, out,
                                lit_start)
        mine += _matches(out, mine[-1], mine[-2], pos)


def _parse_tail(tail: bytes) -> bytes:
    """The helper's reply to a `cores.PARSE` job, a tail: the reach and
    anchor of its ending, packed, followed by its token stream."""
    out = bytearray()
    ending = _finish(tail, 0, {}, out, 0)
    return _ENDING.pack(*ending) + out


def _ending(frame: bytes) -> tuple[bytes, int, int]:
    """The token stream, reach and anchor of a tail, from the reply
    `_parse_tail` wrote; `struct.error` if the frame cannot hold them."""
    reach, anchor = _ENDING.unpack_from(frame)
    return frame[_ENDING.size:], reach, anchor


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
