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
compresses a list of bodies of at least that many bytes in all two at a
time, the helper taking every second body whole (a tail from offset 0).
The helper is the process's one second interpreter (`cores.helper`), sent
`cores.PARSE` jobs: a tail, to which it replies with the reach and anchor
of the tail's ending, packed, then its tokens (`_parse_tail`). For a split
body it parses the tail [x, n) from an empty table, while this process
parses [0, x) and on past x, `_STEP` bytes at a time and at most `_WINDOW`
bytes past x, until the two parses agree (below); on reading JSON they do
some 22-56 KB past x. One job at a time is with the helper. A helper that
cannot start, dies or sends a bad frame is closed for the process, and
every later body is compressed here alone. Only the wall-clock time
depends on it, never a byte.

An `Ending` is a body's stream with a reach and an anchor: as the scan
first enters the body's last `_KEEP` (12 KiB) bytes, where its pending
literals (or its next token) start, and the stream's length there.
`_matches` reads the matches of a stream's tokens from such a token start:
consecutive match tokens of one distance are one match that `_emit_match`
split, since two matches in a row never share a distance (the first
stopped at a byte that differs from the byte that distance back).

One splice rule. A parse of D takes a kept parse's tokens from a point p
on. The kept input's bytes from an entry on are D's, `shift` bytes
earlier, up to the end of the shared bytes. It is the helper's parse of
a split body's tail (shift x, to D's end); a kept body with D's first
bytes (`resume`: shift 0, from 0); or a kept body whose readings array
D's array ends with (`rejoin`: from past the kept array's `[`).
`_agreements` finds p and `_copy` copies from it, for all three:

- The parse state at p is the stream written so far, `lit_start`, and
  every table entry a lookup from p on can accept. The table holds, for
  each 3-byte key, the last inserted position; inserts are every scanned
  position and every match tail, in increasing order; a lookup at pos
  accepts only a candidate in [pos - 8192, pos). A token before p was
  decided by the bytes before p + 2: a match that ends at p was stopped by
  the byte at p, and its tail, the last insert, is keyed by D[p-1:p+2].
- p ends a match in both parses, so no literals are pending, and either
  both parses began there (from empty tables: `resume`'s 0), or both made
  the same matches over [q, p), for a match end q of both past the entry,
  with p - q >= 8192. Then both scanned the same positions there, keyed by
  the same bytes, so for every key both tables hold the same position in
  [p - 8192, p), or none a lookup from p on accepts. From p on, until a
  token reads past the shared bytes, every token and insert is the same.
- So `_copy` appends the kept tokens from p: all of them if the shared
  bytes run to the end of both, as a tail's do. Else it appends them up to
  r, the last match end with r + 2 <= the end of the shared bytes, read
  from the kept reach; rebuilds the table at r by replaying the inserts
  over [r - 8192, r) (every scanned position, match start and match tail)
  from the kept matches, keyed by D's bytes; and parses D on from r. That
  needs r - 8192 past p and past the kept reach.
- The output is the stream `compress` writes for D. Where no p or r turns
  up, D is parsed on alone: only the work saved differs, never a byte.

A rejoin has D's prefix [0, entry + `_WINDOW`), or to the end of the shared
bytes if sooner, parsed through the two-core paths above, and compares its
matches from its reach on with the kept ones; only those that end by the
prefix's last 2 bytes, as its last tokens may not be D's. Without an
agreement, D is parsed on from the prefix's ending, as `resume` does.

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
    the body that `kept` ended, copied from `kept`'s by the module
    docstring's splice rule; None if it finds no r."""
    ending = _resume(_as_bytes(data), kept, common)
    return ending and ending.stream


def _resume(data: bytes, kept: "Ending", common: int) -> "Ending | None":
    # Both parses begin at 0, so they agree there.
    at, _, length = next(_agreements([0, 0, 0], kept.stream, [0, 0, 0], 0))
    return _copy(data, bytearray(), kept, 0, at, length, common)


def rejoin_prefix(entry: int, end: int) -> int:
    """How many bytes of a body `rejoin` is given the parse of: `_WINDOW`
    past the entry, or to the end of the shared bytes if sooner."""
    return min(entry + _WINDOW, end)


def rejoin(data: bytes, prefix: "Ending", kept: "Ending", entry: int,
           kept_entry: int, end: int) -> "Ending":
    """`compress_ending(data)`, given `prefix`, the ending of the first
    `rejoin_prefix(entry, end)` bytes of `data`, and `kept`, the ending of a
    body whose bytes from `kept_entry` on are data's from `entry` (past
    `kept_entry`) to `end`, by the module docstring's splice rule. An `end`
    of None says that the two bodies end there alike."""
    data = _as_bytes(data)
    cut = rejoin_prefix(entry, len(data) if end is None else end)
    shift = entry - kept_entry
    mine = [prefix.reach, prefix.reach, prefix.anchor]
    mine += _matches(prefix.stream, prefix.anchor, prefix.reach, cut - 2)
    # The kept matches from past the entry and the prefix's reach on.
    theirs = _skip(kept.stream, max(kept_entry, prefix.reach - shift))
    splice = next(_agreements(mine, kept.stream, theirs, shift))
    if splice is not None:
        at, mine_length, their_length = splice
        out = bytearray(memoryview(prefix.stream)[:mine_length])
        ending = _copy(data, out, kept, shift, at, their_length, end)
        if ending is not None:
            return ending
    return _resume(data, prefix, cut) or compress_ending(data)


def _skip(stream: bytes, stop: int) -> list[int]:
    """An empty match, [pos, pos, stream length], where the first literal
    run token of `stream` at or past input position `stop` starts (a
    literal run never continues a match), or where the stream ends."""
    pos = length = 0
    size = len(stream)
    while length < size:
        ctrl = stream[length]
        if ctrl < 0x20:  # a literal run
            if pos >= stop:
                break
            pos += ctrl + 1
            length += ctrl + 2
        elif ctrl < 0xE0:  # a short match
            pos += (ctrl >> 5) + 2
            length += 2
        else:  # a long match
            pos += stream[length + 1] + 9
            length += 3
    return [pos, pos, length]


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
    """`[compress_ending(b) for b in bodies]`; two or more bodies of at
    least `SPLIT_MIN_BYTES` in all two at a time, the helper taking every
    second one whole while this process compresses the one before it. A
    body the helper declines or fails is compressed here, to the same
    bytes and ending."""
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
        out.append(_compress(theirs) if reply is None else reply)
    if len(bodies) % 2:
        out.append(compress_ending(bodies[-1]))
    return out


def _as_bytes(data) -> bytes:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("expected bytes")
    return bytes(data)


def _compress(data: bytes, split: int | None = None) -> Ending:
    """The `Ending` of the parse of `data`; given a `split`, the helper
    parses the tail from there if it takes it, and this process parses
    half the window past it before it waits, as they rarely agree sooner."""
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
        tail = helper.reply(_ending)
        if tail is not None:
            pos, lit_start, splice = _parse_to_agreement(
                data, split, table, out, pos, lit_start, mine, tail.stream)
            if splice is not None:
                at, mine_length, their_length = splice
                del out[mine_length:]
                return _copy(data, out, tail, split, at, their_length, None)
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
    bytes past `split`, until `_agreements` finds p in `mine`, this parse's
    matches past `split`, and the helper's `tokens`. Returns where the scan
    stopped, its literal start, and what `_agreements` yielded last."""
    end = min(split + _WINDOW, len(data) - 2)
    agreements = _agreements(mine, tokens, [0, 0, 0], split)
    while True:
        splice = next(agreements)
        if splice is not None or pos >= end:
            return pos, lit_start, splice
        pos, lit_start = _parse(data, pos, min(pos + _STEP, end), table, out,
                                lit_start)
        mine += _matches(out, mine[-1], mine[-2], pos)


def _agreements(mine: list, stream: bytes, theirs: list, shift: int):
    """Yield, each time it is resumed, p of the module docstring's splice
    rule for this parse and a kept one `shift` bytes behind, as (p, the
    lengths there of this stream and of the kept `stream`), or None if the
    matches in `mine` so far hold none. `mine` and `theirs`, as `_matches`
    reads them, start with an empty match where the tokens read begin;
    `theirs` is read on from `stream` as far as `mine` has reached."""
    if mine[2] == theirs[2] == 0 and mine[0] - shift == theirs[0]:
        yield mine[0], 0, 0  # both parses begin here
        return
    run = None  # (q, its index in mine, in theirs) of the matches in common
    i = j = 3  # the next match of each to compare, past the empty ones
    while True:
        theirs += _matches(stream, theirs[-1], theirs[-2], mine[-2] - shift)
        while i < len(mine):
            start, stop = mine[i] - shift, mine[i + 1] - shift
            while j < len(theirs) and theirs[j] < start:
                j += 3
            if j == len(theirs) or theirs[j] != start or theirs[j + 1] != stop:
                run = None
            elif run is None or j - run[2] != i - run[1]:
                run = (stop, i, j)
            elif stop - run[0] >= _MAX_DISTANCE:
                yield shift + stop, mine[i + 2], theirs[j + 2]
                return
            i += 3
        yield None


def _copy(data: bytes, out: bytearray, kept: "Ending", shift: int, at: int,
          length: int, end: int | None) -> "Ending | None":
    """Data's ending by the module docstring's splice rule: `out`, this
    stream up to p = `at`, where `kept`'s stream is `length` bytes long,
    then `kept`'s tokens from p (all of them if `end` is None), then a
    parse from r; None if it finds no r."""
    base = len(out) - length  # a kept token's offset in `out`, less its own
    reach, anchor = kept.reach + shift, kept.anchor + base
    if reach < at:  # the kept reach is not copied
        reach, anchor = at, len(out)
    if end is None:
        out += memoryview(kept.stream)[length:]
        return Ending(bytes(out), reach, anchor)
    matches = _matches(kept.stream, kept.anchor, kept.reach, end - shift - 2)
    if not matches:
        return None
    r, copied = matches[-2] + shift, matches[-1]
    start = max(r - _MAX_DISTANCE, 0)
    if start < reach:
        return None
    out += memoryview(kept.stream)[length:copied]
    table: dict[bytes, int] = {}
    scan = start  # the first position whose insert is not replayed yet
    for i in range(0, len(matches), 3):
        begin, stop = matches[i] + shift, matches[i + 1] + shift
        if stop <= start:
            continue
        # The literals before the match and its start are scanned positions;
        # a match that begins before `start` leaves only its tail.
        for pos in range(scan, begin + 1):
            table[data[pos : pos + 3]] = pos
        table[data[stop - 1 : stop + 2]] = stop - 1
        scan = stop
    reached, anchored = _finish(data, r, table, out, r)
    if reached > r:  # the scan entered the last `_KEEP` bytes past r
        reach, anchor = reached, anchored
    return Ending(bytes(out), reach, anchor)


def _parse_tail(tail: bytes) -> bytes:
    """The helper's reply to a `cores.PARSE` job, a tail: the reach and
    anchor of its ending, packed, followed by its token stream."""
    out = bytearray()
    ending = _finish(tail, 0, {}, out, 0)
    return _ENDING.pack(*ending) + out


def _ending(frame: bytes) -> Ending:
    """The ending of a tail, from the reply `_parse_tail` wrote;
    `struct.error` if the frame cannot hold it."""
    return Ending(frame[_ENDING.size:], *_ENDING.unpack_from(frame))


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
