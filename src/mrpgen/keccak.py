"""Keccak-p[1600] sponge primitives for the KangarooTwelve backend, batched.

The standard SHA-3 XOF path of this library goes through ``hashlib``; this
module exists only to provide the optional reduced-round backend.  The
full-round mode, ``sponge(data, 0x1F, out_len, rounds=24)``, is SHAKE128; the
tests use it to check the permutation and all 24 round constants against
``hashlib``.

A state is 25 little-endian 64-bit lanes, lane (x, y) at index x + 5*y as in
FIPS 202.  ``keccak_p`` takes a ``uint64`` array whose first axis is those 25
lanes; any axes after it are a batch of B independent states, so lanes[i, b]
is lane i of state b.  It permutes the states in tiles of W = ``_TILE``, and a
round is a few whole-array numpy operations over all W states of a tile at
once: the "times-N" layout of XKCP's KeccakP-1600-times4/8, with the batch
axis in place of SIMD lanes.  A KangarooTwelve limb (RFC 9861) is n_seg
independent single-block inputs, so it costs 12 rounds of array operations
instead of n_seg per-state permutations.

Each tile is first copied into a C-ordered (25, W) array, so that every lane
is one contiguous row.  The sponge passes the transposed (count, 25) view of
its padded blocks, where one lane's values sit 200 bytes apart.  A plain
``np.array`` copy keeps that order, and rounds on it take two to three times
as long on 2048 states.  A round works on the tile and its own temporaries:

- theta reduces the tile's (5, 5, W) view over y into the five column
  parities, one ``bitwise_xor.reduce``, and xors each column's d into the
  tile in place by broadcasting over that view.  The parity stays one
  reduce: four xors of plane slices gain at most a few percent on a large
  batch and cost 7-10% on one state, the per-segment KangarooTwelve path.
- rho and pi gather the lanes in pi order into a temporary b and rotate it:
  the right shift goes to a second temporary, the left shift and the or are
  done in place on b.
- chi gathers b's lanes at x + 1, inverts them in place, ands b's lanes at
  x + 2 into them, and writes their xor with b into the tile; iota then
  xors the round constant into lane 0.

The sponge functions take one message as ``bytes`` or a batch as a 2-D
``uint8`` matrix with one message per row, such as the (n_seg, 42) domain
inputs of a limb, and return the outputs concatenated in row order; a single
message is a one-row matrix.  Each row, with KangarooTwelve's customization
suffix as extra columns, is written straight into one padded block, so a
batch is never split into per-message objects.

Every sponge here is one block, as each (q, id_seg) engine uses it: at most
167 input bytes padded into the 168-byte rate, one permutation, and one
squeeze of at most 168 bytes.  Anything longer raises ConfigError.
"""

import numpy as np

from .errors import ConfigError
from .profiles import DEFAULT_R_BITS

# Keccak-f[1600] iota constants; Keccak-p[1600, n] uses the last n of them.
_ROUND_CONSTANTS = np.array([
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
], dtype=np.uint64)

# rho rotation offset for lane (x, y) at index x + 5*y.
_RHO = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)

# pi moves lane (x, y) to (y, 2x + 3y mod 5); _PI_SOURCE[j] is the lane that
# lands at index j, and rho rotates it by the offset of that source lane.
_PI_SOURCE = np.empty(25, dtype=np.intp)
for _x in range(5):
    for _y in range(5):
        _PI_SOURCE[_y + 5 * ((2 * _x + 3 * _y) % 5)] = _x + 5 * _y
_ROT_LEFT = np.array([_RHO[i] for i in _PI_SOURCE], dtype=np.uint64)[:, None]
_ROT_RIGHT = (np.uint64(64) - _ROT_LEFT) % np.uint64(64)
# theta mixes column x with columns x - 1 and x + 1; chi combines lane (x, y)
# with lanes (x + 1, y) and (x + 2, y).
_PREV = np.array([4, 0, 1, 2, 3])
_NEXT = np.array([1, 2, 3, 4, 0])
_CHI_NEXT = np.array([5 * y + (x + 1) % 5 for y in range(5) for x in range(5)])
_CHI_AFTER = np.array([5 * y + (x + 2) % 5 for y in range(5) for x in range(5)])
_ONE, _SIXTY_THREE = np.uint64(1), np.uint64(63)
_TILE = 1024     # states per pass through the rounds

_RATE = DEFAULT_R_BITS // 8  # 168 bytes; TurboSHAKE128, KangarooTwelve and SHAKE128


def keccak_p(lanes, rounds: int) -> np.ndarray:
    """Apply Keccak-p[1600, rounds] to each state of a (25, ...) lane array.

    ``lanes`` may be anything ``np.asarray`` turns into 25 leading lanes,
    such as a list of 25 ints for one state; the input is not modified and
    the result is a ``uint64`` array of the same shape.  States are permuted
    _TILE at a time, so that a round's temporaries stay in cache, each tile in
    a C-ordered copy (see the module docstring).
    """
    state = np.asarray(lanes, dtype=np.uint64)
    if state.shape[:1] != (25,):
        raise ConfigError(f"a Keccak state has 25 lanes, got shape {state.shape}")
    flat = state.reshape(25, -1)
    out = np.empty_like(flat)
    for lo in range(0, flat.shape[1], _TILE):
        a = np.array(flat[:, lo:lo + _TILE], order="C")
        width = a.shape[1]
        planes = a.reshape(5, 5, width)  # planes[y, x] is lane (x, y); a view of a
        for rc in _ROUND_CONSTANTS[24 - rounds:]:
            # theta: column parities c[x], then d[x] = c[x - 1] ^ rotl(c[x + 1], 1)
            # xored into column x of every plane
            c = np.bitwise_xor.reduce(planes, axis=0)
            c1 = c.take(_NEXT, axis=0)
            planes ^= c.take(_PREV, axis=0) ^ ((c1 << _ONE) | (c1 >> _SIXTY_THREE))
            # rho + pi: the lanes in pi order, each rotated in place
            b = a.take(_PI_SOURCE, axis=0)
            carry = b >> _ROT_RIGHT
            b <<= _ROT_LEFT
            b |= carry
            # chi: b ^ (~b[x + 1] & b[x + 2]), written into the tile
            chi = b.take(_CHI_NEXT, axis=0)
            np.invert(chi, out=chi)
            chi &= b.take(_CHI_AFTER, axis=0)
            np.bitwise_xor(b, chi, out=a)
            # iota
            a[0] ^= rc
        out[:, lo:lo + width] = a
    return out.reshape(state.shape)


def _message_rows(data) -> np.ndarray:
    """One message as a one-row matrix (a view), or a batch matrix as it is."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(data, dtype=np.uint8).reshape(1, -1)
    if not (isinstance(data, np.ndarray) and data.ndim == 2 and data.dtype == np.uint8):
        raise ConfigError("a sponge batch is a 2-D uint8 matrix, one message per row")
    return data


def _absorb_squeeze(rows: np.ndarray, tail: bytes, suffix: int, out_len: int,
                    rounds: int) -> bytes:
    """The one-block sponge over every row of ``rows`` and the common ``tail``."""
    count, size = rows.shape
    end = size + len(tail)
    if end >= _RATE or out_len > _RATE:
        raise ConfigError(f"one sponge block takes at most {_RATE - 1} input bytes and "
                          f"gives at most {_RATE}; got {end} in and {out_len} out")
    state = np.zeros((count, 200), dtype=np.uint8)   # 1600 bits, rate then capacity
    state[:, :size] = rows
    state[:, size:end] = np.frombuffer(tail, dtype=np.uint8)
    state[:, end] ^= suffix
    state[:, _RATE - 1] ^= 0x80
    lanes = keccak_p(state.view("<u8").T, rounds)
    return np.ascontiguousarray(lanes.T, dtype="<u8").view(np.uint8)[:, :out_len].tobytes()


def sponge(data: bytes | np.ndarray, suffix: int, out_len: int, rounds: int) -> bytes:
    """Keccak sponge (rate 168 bytes) with combined suffix-and-pad10*1 padding.

    ``suffix`` is the domain byte whose lowest bit starts the padding
    (0x1F for SHAKE128, 0x01..0x7F for TurboSHAKE).  ``data`` is one message
    or a 2-D ``uint8`` matrix of messages, one per row; all states of a batch
    absorb and squeeze together, and the result is their outputs concatenated.
    """
    return _absorb_squeeze(_message_rows(data), b"", suffix, out_len, rounds)


def turbo_shake128(data: bytes | np.ndarray, domain: int, out_len: int) -> bytes:
    if not 0x01 <= domain <= 0x7F:
        raise ConfigError(f"TurboSHAKE domain byte out of range: {domain:#x}")
    return sponge(data, domain, out_len, rounds=12)


def _length_encode(n: int) -> bytes:
    body = b"" if n == 0 else n.to_bytes((n.bit_length() + 7) // 8, "big")
    return body + bytes([len(body)])


def kangaroo_twelve(data: bytes | np.ndarray, customization: bytes,
                    out_len: int) -> bytes:
    """KangarooTwelve over one message or a batch matrix, in one sponge block.

    Every row of a batch shares ``customization``, whose encoding goes into
    the padded block after each row.  A row, the customization and its length
    encoding take at most 167 bytes together and ``out_len`` is at most 168;
    anything longer raises ConfigError.  Such inputs are far below one 8 KiB
    chunk, where RFC 9861 needs no tree hashing.
    """
    rows = _message_rows(data)
    return _absorb_squeeze(rows, customization + _length_encode(len(customization)),
                           0x07, out_len, rounds=12)
