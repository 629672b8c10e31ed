"""Domain-separated XOF expansion shared by the client and server paths.

Every pseudorandom bit in this library comes from a single squeeze of an
extendable-output function over ``seed || q || id_seg``: a 288-bit seed,
the 32-bit modulus, and the 16-bit segment index, 336 bits in all.  The
modulus and segment index make every segment's stream independent, which is
what allows segments to be generated in any order, on any engine.

A limb's inputs are one (n_seg, 42) ``uint8`` matrix, row id_seg the input of
segment id_seg: ``encode_domain_inputs`` broadcasts the ``seed || q`` prefix
and appends the little-endian segment indices, as the vectorized matrix
expansion of ML-KEM (FIPS 203) builds all of its XOF inputs at once.
``encode_domain_input`` is the scalar ``bytes`` form of one row, for the
per-segment engine path.

``xof_expand_many`` expands such a matrix to the same ``out_len``-byte prefix
of each row's one 168-byte block (the whole block by default), into one
buffer: row i's prefix is bytes [out_len*i, out_len*(i+1)).  Both XOFs are
prefix-consistent, so a shorter squeeze gives the same leading bytes.  It
checks the backend, the length and the matrix's shape, dtype and width once
for the batch, then hands the matrix to the backend's batch expander in
``BACKENDS``.  SHAKE128 hashes the rows of one copy of the matrix, unpacked
as ``bytes`` by ``struct.iter_unpack``, with ``hashlib``, which beats any
numpy Keccak per block; KangarooTwelve permutes all of the rows' states in
one batched Keccak-p call.  ``xof_expand`` expands one ``bytes`` input to
the first r_bits/8 bytes of its block: a valid SHAKE128 call goes to
``hashlib`` directly, anything else is a one-row matrix.

All multi-byte values are little-endian; both the encoder and the word
splitter share the convention so any fixed-width field change shows up in
the golden vectors.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import keccak
from .errors import ParamsError
from .profiles import DEFAULT_R_BITS, MAX_N_SEG

SEED_BYTES = 36          # 288-bit seed
COMMON_PART_BYTES = 32   # shared seed part of a multi-polynomial key
INPUT_BYTES = 42         # seed || q(4) || id_seg(2)
MAX_INPUT_BYTES = 64     # hard cap; keeps the hash to one absorb block
BLOCK_BYTES = DEFAULT_R_BITS // 8  # 168: the one block a segment may squeeze

_WORD_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4"}


@dataclass(frozen=True)
class Seed:
    """An opaque 288-bit generation seed (canonically 36 bytes / 72 hex)."""

    data: bytes

    def __post_init__(self):
        if not isinstance(self.data, bytes) or len(self.data) != SEED_BYTES:
            raise ParamsError(f"seed must be exactly {SEED_BYTES} bytes")

    @classmethod
    def from_hex(cls, text: str) -> "Seed":
        text = text.strip()
        if len(text) != 2 * SEED_BYTES:
            raise ParamsError(f"seed hex must be {2 * SEED_BYTES} characters")
        try:
            data = bytes.fromhex(text)
        except ValueError:
            raise ParamsError("seed hex must contain only hexadecimal digits") from None
        return cls(data)

    def hex(self) -> str:
        return self.data.hex()

    def __repr__(self):
        return f"Seed({self.hex()})"


def derive_polynomial_seed(common: bytes, poly_id: int) -> Seed:
    """Build a per-polynomial seed from a 256-bit common part and a 32-bit id.

    One key-switching key carries several polynomials; they share the common
    part and differ only in ``poly_id``, so the full seed stays 288 bits.
    """
    if len(common) != COMMON_PART_BYTES:
        raise ParamsError(f"common seed part must be {COMMON_PART_BYTES} bytes")
    if not 0 <= poly_id < 2 ** 32:
        raise ParamsError("poly_id must fit in 32 bits")
    return Seed(common + poly_id.to_bytes(4, "little"))


def _domain_prefix(seed: Seed, q: int) -> bytes:
    if not 0 < q < 2 ** 32:
        raise ParamsError("q must be a positive 32-bit value")
    return seed.data + q.to_bytes(4, "little")


def encode_domain_input(seed: Seed, q: int, id_seg: int) -> bytes:
    """Encode ``seed || q || id_seg`` into the fixed 42-byte hash input.

    Injective by construction: all three fields have fixed width.
    """
    prefix = _domain_prefix(seed, q)
    if not 0 <= id_seg < MAX_N_SEG:
        raise ParamsError("id_seg must fit in 16 bits")
    return prefix + id_seg.to_bytes(2, "little")


def encode_domain_inputs(seed: Seed, q: int, count: int) -> np.ndarray:
    """The inputs of segments 0..count-1 as one (count, 42) ``uint8`` matrix.

    Row i equals ``encode_domain_input(seed, q, i)``.
    """
    prefix = _domain_prefix(seed, q)
    if not 0 <= count <= MAX_N_SEG:
        raise ParamsError("count must be in 0..65536 (16-bit segment ids)")
    rows = np.empty((count, INPUT_BYTES), dtype=np.uint8)
    rows[:, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    rows[:, len(prefix):] = np.arange(count, dtype="<u2").view(np.uint8).reshape(count, 2)
    return rows


def _expand_shake128(inputs: np.ndarray, out_len: int) -> bytes | bytearray:
    count, width = inputs.shape
    if not width:  # a struct of length 0 cannot be unpacked iteratively
        return hashlib.shake_128(b"").digest(out_len) * count
    out = bytearray()
    for (row,) in struct.iter_unpack(f"{width}s", inputs.tobytes()):
        out += hashlib.shake_128(row).digest(out_len)
    return out


def _expand_kangarootwelve(inputs: np.ndarray, out_len: int) -> bytes:
    return keccak.kangaroo_twelve(inputs, b"", out_len)


BACKENDS = {
    "shake128": _expand_shake128,
    "kangarootwelve": _expand_kangarootwelve,
}


def xof_expand_many(inputs: np.ndarray, backend: str = "shake128", *,
                    out_len: int = BLOCK_BYTES) -> bytes | bytearray:
    """The first out_len bytes of each matrix row's one XOF block, concatenated in order.

    ``inputs`` is a 2-D ``uint8`` matrix with one input of at most 64 bytes
    per row, such as ``encode_domain_inputs`` returns; ``out_len`` is in
    1..168, the whole 1344-bit block by default.  One block per input,
    never a second, mirroring hardware that latches a single sponge output per
    (q, id_seg) instance; the instances share no state, so a backend may
    compute them in any order or all at once.
    """
    try:
        expand = BACKENDS[backend]
    except KeyError:
        raise ParamsError(f"unknown XOF backend '{backend}'") from None
    if not (isinstance(inputs, np.ndarray) and inputs.ndim == 2 and inputs.dtype == np.uint8):
        raise ParamsError("XOF batch inputs must be a 2-D uint8 matrix, one input per row")
    if inputs.shape[1] > MAX_INPUT_BYTES:
        raise ParamsError(f"XOF input longer than {MAX_INPUT_BYTES} bytes")
    if not (isinstance(out_len, int) and 0 < out_len <= BLOCK_BYTES):
        raise ParamsError(f"XOF output length must be in 1..{BLOCK_BYTES} bytes, got {out_len!r}")
    return expand(inputs, out_len)


def xof_expand(data: bytes, r_bits: int = DEFAULT_R_BITS, backend: str = "shake128") -> bytes:
    """The first r_bits/8 bytes of ``data``'s one XOF block: a batch of one.

    ``r_bits`` is a positive multiple of 8 up to the block's 1344 bits.  A
    valid SHAKE128 call goes straight to ``hashlib``: building a one-row
    matrix costs more than a hash.  Anything else takes the batch path as a
    one-row matrix, which also reports an invalid call.
    """
    if not (0 < r_bits <= DEFAULT_R_BITS and r_bits % 8 == 0):
        raise ParamsError(f"block size must be a positive multiple of 8 bits "
                          f"up to {DEFAULT_R_BITS}, got {r_bits}")
    if backend == "shake128" and len(data) <= MAX_INPUT_BYTES:
        return hashlib.shake_128(data).digest(r_bits // 8)
    row = np.frombuffer(data, dtype=np.uint8).reshape(1, -1)
    return bytes(xof_expand_many(row, backend, out_len=r_bits // 8))


def split_words(block: bytes, w: int) -> np.ndarray:
    """Split a block into ``t = floor(len*8 / w)`` little-endian w-bit words.

    Word order is normative: word i occupies bytes [i*w/8, (i+1)*w/8), and
    the rejection scan consumes words strictly in this order.
    """
    if w not in _WORD_DTYPES:
        raise ParamsError(f"unsupported word size {w}; expected one of {sorted(_WORD_DTYPES)}")
    nbytes = w // 8
    t = len(block) // nbytes
    return np.frombuffer(block, dtype=_WORD_DTYPES[w], count=t)
