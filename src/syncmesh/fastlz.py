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

Decompression writes at most `MAX_OUTPUT` bytes: a stream that would write
more raises ValueError before it does, so a few hundred bytes of long-match
tokens cannot grow into gigabytes. The largest body a benchmark sends is
about 3.3 MB.
"""

from __future__ import annotations

_MAX_DISTANCE = 8192
_MAX_LITERAL_RUN = 32
_MAX_MATCH = 264
_MIN_MATCH = 3
_WORD = 32  # bytes compared per step when extending a match
MAX_OUTPUT = 64 * 1024 * 1024  # most bytes any codec's decompress writes


def compress(data: bytes) -> bytes:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("expected bytes")
    data = bytes(data)
    n = len(data)
    if n < _MIN_MATCH + 1:
        return _emit_all_literals(data)

    out = bytearray()
    append = out.append
    table: dict[bytes, int] = {}
    lookup = table.get
    from_bytes = int.from_bytes
    # The loop runs once per token or unmatched byte: keep its names local.
    min_match, max_match, max_run, max_distance, word = (
        _MIN_MATCH, _MAX_MATCH, _MAX_LITERAL_RUN, _MAX_DISTANCE, _WORD)
    pos = 0
    lit_start = 0
    # Last two positions cannot start a 3-byte match.
    limit = n - 2
    while pos < limit:
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
    _flush_literals(out, data, lit_start, n)
    return bytes(out)


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
