"""The synthetic dataset's row writer, and the helper's job that runs it.

Each sensor draws from its own `random.Random`, seeded with
"{seed}|{sensor_id}", through `random()` alone. The stdlib's
`lognormvariate`, `uniform` and `gauss` are written out inline with their
formulas and draw order, so the floats, and the text, are the ones those
methods give. A sensor's rows depend on no other sensor's, so any list of
sensors can be written apart from the rest: `bench.generate_synthetic`
hands the second part of its list to the process's helper (`cores`),
which runs `rows_reply`, and writes the first part itself.

This module imports only the stdlib: the helper imports it without the
package.
"""

from __future__ import annotations

import io
from math import cos, exp, log, sin, sqrt, tau
from random import Random

SYNTHETIC_EPOCH_S = 1_672_531_200  # 2023-01-01T00:00:00Z
# `random.normalvariate`'s constant, 4 * exp(-0.5) / sqrt(2.0).
_NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0)


def write_rows(sensor_ids, days: int, rate: int, seed) -> str:
    """The CSV rows of each sensor in `sensor_ids`, in order: `days` times
    `rate` readings each, `86_400 // rate` seconds apart. `seed` is only
    formatted, so its text seeds the same draws as the value."""
    interval_s = 86_400 // rate
    out = io.StringIO()
    write = out.write
    for sensor_id in sensor_ids:
        random = Random(f"{seed}|{sensor_id}").random
        gauss_next = None  # the second Box-Muller deviate, as `gauss` keeps it
        lat = round(42.55 + random() * 0.3, 5)
        lon = round(23.20 + random() * 0.4, 5)
        prefix = f"{sensor_id},{lat},{lon},"
        for step in range(days * rate):
            ts = SYNTHETIC_EPOCH_S + step * interval_s
            # lognormvariate(2.6, 0.7) and (2.1, 0.7): exp of a
            # Kinderman-Monahan normal deviate.
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            p1 = round(exp(2.6 + z * 0.7), 2)
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            p2 = round(exp(2.1 + z * 0.7), 2)
            # uniform(a, b) is a + (b - a) * random().
            temperature = round(-10.0 + 50.0 * random(), 2)
            humidity = round(0.0 + 100.0 * random(), 2)
            # Every seventh row omits the optional pressure reading; the
            # others take gauss(101_325.0, 300.0), a Box-Muller pair per two.
            if step % 7 == 3:
                pressure = ""
            else:
                z = gauss_next
                gauss_next = None
                if z is None:
                    x2pi = random() * tau
                    g2rad = sqrt(-2.0 * log(1.0 - random()))
                    z = cos(x2pi) * g2rad
                    gauss_next = sin(x2pi) * g2rad
                pressure = f"{101_325.0 + z * 300.0:.1f}"
            write(f"{prefix}{ts},{p1},{p2},{temperature},{humidity},{pressure}\n")
    return out.getvalue()


def rows_request(sensor_ids, days: int, rate: int, seed) -> bytes:
    """The body of a rows job: days, rate, the seed's text and each sensor
    id, one a line."""
    return "\n".join([str(days), str(rate), f"{seed}", *sensor_ids]).encode()


def rows_reply(request: bytes) -> bytes:
    """The helper's reply to a rows job: `write_rows` of its request, as
    ASCII. A request it cannot read raises ValueError."""
    days, rate, seed, *sensor_ids = request.decode().split("\n")
    return write_rows(sensor_ids, int(days), int(rate), seed).encode()
