"""CRC-8 as computed by the Myrinet link hardware.

Myrinet appends an 8-bit CRC to every packet on send and checks it on
arrival (paper section 3).  We use the CRC-8/ATM (HEC) polynomial
x^8 + x^2 + x + 1 (0x07), table-driven, computed over the real bytes the
packet carries — so wire-level bit-flip injection is genuinely detected.

Every packet is sealed and checked, so this is the link pipeline's hot
path.  Two evaluations give bit-identical results, chosen by input size:

* below ``_SMALL`` bytes, the plain byte loop over ``_TABLE``, which is
  also the reference the tests hold the other path to;
* from ``_SMALL`` up, a *period fold*.  The table step
  ``crc' = T[crc ^ b]`` is GF(2)-linear (``T[a ^ b] == T[a] ^ T[b]``),
  so unrolling n steps gives

      crc_n = T^n[initial]  ^  XOR_{i<n} T^(n-i)[data[i]]

  and ``T^127`` is the identity, so a byte at distance d from the end
  contributes ``T^(d mod 127)[byte]``.  The buffer is XOR-folded into
  127 lanes (one reshape and reduce), then one 127-entry gather from a
  127×256 table and an XOR reduction finish it.  The per-byte work is a
  single numpy XOR whatever the message size, and the table is 32 KiB
  (the power-table stack this replaced was ~1 MiB).

Crossover, measured on a 2-core x86-64 VM (CPython 3.11, numpy 2.4):
at 32 bytes the loop and the fold both take ~6 µs; at 24 bytes the loop
is faster (4.7 vs 6.4 µs), at 48 bytes the fold (6.1 vs 8.3 µs).  A
4 KiB link packet takes the fold ~7 µs.
"""

from __future__ import annotations

import numpy as np

_POLY = 0x07
#: Order of the table step T: T^_PERIOD is the identity.
_PERIOD = 127
#: Below this the plain Python loop beats the fold's fixed numpy cost.
_SMALL = 32


def _build_table() -> np.ndarray:
    table = np.zeros(256, dtype=np.uint8)
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ _POLY) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table[byte] = crc
    return table


_TABLE = _build_table()


def _build_powers() -> np.ndarray:
    """Row k is T^k as a 256-entry lookup, for k in [0, _PERIOD)."""
    powers = np.empty((_PERIOD + 1, 256), dtype=np.uint8)
    powers[0] = np.arange(256, dtype=np.uint8)
    for k in range(1, _PERIOD + 1):
        powers[k] = _TABLE[powers[k - 1]]
    if not np.array_equal(powers[_PERIOD], powers[0]):
        raise RuntimeError(f"CRC-8 table step does not have period {_PERIOD}")
    return powers[:_PERIOD]


#: Flat T^d lookups, 256 entries per lane: lane j holds bytes at distance
#: d ≡ -j (mod _PERIOD) from the end, so its row is T^(-j mod _PERIOD).
_FOLD = _build_powers()[-np.arange(_PERIOD) % _PERIOD].ravel()
_LANE_BASE = np.arange(_PERIOD) * 256


def _crc8_loop(buf: np.ndarray, crc: int) -> int:
    for byte in buf.tolist():
        crc = int(_TABLE[crc ^ byte])
    return crc


def crc8(data: bytes | bytearray | np.ndarray, initial: int = 0) -> int:
    """CRC-8/ATM over ``data``; returns a value in [0, 255]."""
    buf = np.frombuffer(bytes(data), dtype=np.uint8) \
        if isinstance(data, (bytes, bytearray)) \
        else np.asarray(data, dtype=np.uint8)
    crc = initial & 0xFF
    n = buf.size
    if n < _SMALL:
        return _crc8_loop(buf, crc)
    head = n % _PERIOD
    lanes = np.bitwise_xor.reduce(buf[head:].reshape(-1, _PERIOD), axis=0)
    lanes[_PERIOD - head:] ^= buf[:head]
    if crc:
        # The initial value enters like a byte XORed into data[0], which
        # sits in lane -head (lane 0 when head == 0).
        lanes[-head] ^= crc
    return int(np.bitwise_xor.reduce(_FOLD[_LANE_BASE + lanes]))
