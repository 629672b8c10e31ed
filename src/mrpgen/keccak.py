"""Keccak-p[1600] sponge primitives for the KangarooTwelve backend.

The standard SHA-3 XOF path of this library goes through ``hashlib``; this
module exists only to provide the optional reduced-round backend.  The
full-round mode, ``sponge(data, 0x1F, out_len, rounds=24)``, is SHAKE128; the
tests use it to check the permutation and all 24 round constants against
``hashlib``.
"""

from .errors import ConfigError

_MASK = (1 << 64) - 1

# Keccak-f[1600] iota constants; Keccak-p[1600, n] uses the last n of them.
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# rho rotation offset for lane (x, y) at index x + 5*y.
_RHO = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)

_CHUNK = 8192  # KangarooTwelve tree-hash chunk size in bytes


def _rotl(v: int, n: int) -> int:
    return ((v << n) | (v >> (64 - n))) & _MASK


def keccak_p(lanes: list[int], rounds: int) -> list[int]:
    """Apply Keccak-p[1600, rounds] to 25 little-endian 64-bit lanes."""
    a = lanes
    for rc in _ROUND_CONSTANTS[24 - rounds:]:
        # theta
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        a = [a[i] ^ d[i % 5] for i in range(25)]
        # rho + pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = _rotl(a[x + 5 * y], _RHO[x + 5 * y])
        # chi
        a = [b[i] ^ (~b[(i + 1) % 5 + 5 * (i // 5)] & b[(i + 2) % 5 + 5 * (i // 5)])
             for i in range(25)]
        # iota
        a[0] ^= rc
    return a


def _absorb_block(lanes: list[int], block: bytes, rounds: int) -> list[int]:
    for i in range(len(block) // 8):
        lanes[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
    return keccak_p(lanes, rounds)


def sponge(data: bytes, suffix: int, out_len: int, rounds: int, rate: int = 168) -> bytes:
    """Keccak sponge with combined suffix-and-pad10*1 padding.

    ``suffix`` is the domain byte whose lowest bit starts the padding
    (0x1F for SHAKE128, 0x01..0x7F for TurboSHAKE).
    """
    lanes = [0] * 25
    pos = 0
    while len(data) - pos >= rate:
        lanes = _absorb_block(lanes, data[pos:pos + rate], rounds)
        pos += rate
    last = bytearray(rate)
    rem = data[pos:]
    last[:len(rem)] = rem
    last[len(rem)] ^= suffix
    last[rate - 1] ^= 0x80
    lanes = _absorb_block(lanes, bytes(last), rounds)

    out = bytearray()
    while len(out) < out_len:
        for lane in lanes[:rate // 8]:
            out += lane.to_bytes(8, "little")
        if len(out) < out_len:
            lanes = keccak_p(lanes, rounds)
    return bytes(out[:out_len])


def turbo_shake128(data: bytes, domain: int, out_len: int) -> bytes:
    if not 0x01 <= domain <= 0x7F:
        raise ConfigError(f"TurboSHAKE domain byte out of range: {domain:#x}")
    return sponge(data, domain, out_len, rounds=12)


def _length_encode(n: int) -> bytes:
    body = b"" if n == 0 else n.to_bytes((n.bit_length() + 7) // 8, "big")
    return body + bytes([len(body)])


def kangaroo_twelve(data: bytes, customization: bytes, out_len: int) -> bytes:
    """KangarooTwelve, single-chunk path.

    Inputs in this library are at most 64 bytes, so the tree-hashing branch
    for messages beyond one 8 KiB chunk is never reached and is not
    implemented.
    """
    s = data + customization + _length_encode(len(customization))
    if len(s) > _CHUNK:
        raise ConfigError("multi-chunk KangarooTwelve inputs are not supported")
    return turbo_shake128(s, 0x07, out_len)
