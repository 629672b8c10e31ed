# Independent SHAKE128 and KangarooTwelve used only to produce and check
# golden fixtures.  Written against the FIPS 202 and RFC 9861 descriptions
# with a (x, y)-indexed state; deliberately shares no code with the package
# under test.

ROT = {
    (0, 0): 0, (1, 0): 1, (2, 0): 62, (3, 0): 28, (4, 0): 27,
    (0, 1): 36, (1, 1): 44, (2, 1): 6, (3, 1): 55, (4, 1): 20,
    (0, 2): 3, (1, 2): 10, (2, 2): 43, (3, 2): 25, (4, 2): 39,
    (0, 3): 41, (1, 3): 45, (2, 3): 15, (3, 3): 21, (4, 3): 8,
    (0, 4): 18, (1, 4): 2, (2, 4): 61, (3, 4): 56, (4, 4): 14,
}

RC = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]

RATE = 168  # SHAKE128: 1600 - 2*128 security bits = 1344-bit rate


def rotl64(value, amount):
    amount %= 64
    value &= 0xFFFFFFFFFFFFFFFF
    return ((value << amount) | (value >> (64 - amount))) & 0xFFFFFFFFFFFFFFFF


def keccak_f1600(state, rounds=24):
    # Keccak-p[1600, rounds]: the last `rounds` rounds of Keccak-f[1600]
    for rnd in range(24 - rounds, 24):
        # theta
        parity = {x: state[(x, 0)] ^ state[(x, 1)] ^ state[(x, 2)]
                  ^ state[(x, 3)] ^ state[(x, 4)] for x in range(5)}
        for x in range(5):
            d = parity[(x - 1) % 5] ^ rotl64(parity[(x + 1) % 5], 1)
            for y in range(5):
                state[(x, y)] ^= d
        # rho + pi
        moved = {}
        for x in range(5):
            for y in range(5):
                moved[(y, (2 * x + 3 * y) % 5)] = rotl64(state[(x, y)], ROT[(x, y)])
        # chi
        for x in range(5):
            for y in range(5):
                state[(x, y)] = moved[(x, y)] ^ (
                    ~moved[((x + 1) % 5, y)] & moved[((x + 2) % 5, y)]
                ) & 0xFFFFFFFFFFFFFFFF
        # iota
        state[(0, 0)] ^= RC[rnd]
    return state


def state_to_bytes(state, count):
    out = bytearray()
    for y in range(5):
        for x in range(5):
            out += state[(x, y)].to_bytes(8, "little")
            if len(out) >= count:
                return bytes(out[:count])
    return bytes(out[:count])


def absorb_block(state, block, rounds=24):
    assert len(block) == RATE
    i = 0
    for y in range(5):
        for x in range(5):
            if i >= RATE:
                break
            state[(x, y)] ^= int.from_bytes(block[i:i + 8], "little")
            i += 8
    return keccak_f1600(state, rounds)


def sponge(message, pad_byte, out_len, rounds):
    state = {(x, y): 0 for x in range(5) for y in range(5)}
    padded = bytearray(message)
    padded.append(pad_byte)
    while len(padded) % RATE:
        padded.append(0x00)
    padded[-1] ^= 0x80
    for offset in range(0, len(padded), RATE):
        state = absorb_block(state, bytes(padded[offset:offset + RATE]), rounds)
    output = bytearray()
    while len(output) < out_len:
        output += state_to_bytes(state, RATE)
        if len(output) < out_len:
            state = keccak_f1600(state, rounds)
    return bytes(output[:out_len])


def shake128(message, out_len):
    return sponge(message, 0x1F, out_len, 24)


def length_encode(n):
    # RFC 9861: big-endian bytes without leading zeros, then their count
    digits = []
    while n:
        digits.insert(0, n & 0xFF)
        n >>= 8
    return bytes(digits + [len(digits)])


def kangaroo_twelve(message, custom, out_len):
    # RFC 9861 KangarooTwelve for inputs of one 8192-byte chunk: a single
    # TurboSHAKE128 call (12 rounds) with domain byte 0x07
    s = message + custom + length_encode(len(custom))
    if len(s) > 8192:
        raise ValueError("the reference covers single-chunk inputs only")
    return sponge(s, 0x07, out_len, 12)


# First bytes of the standard empty-message SHAKE128 output, from the
# published FIPS 202 example vectors, and K12("", "", 32) from the RFC 9861
# test vectors; they anchor this module itself.
EMPTY_PREFIX_HEX = (
    "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26"
)
K12_EMPTY_HEX = (
    "1ac2d450fc3b4205d19da7bfca1b37513c0803577ac7167f06fe2ce1f0ef39e5"
)


def self_check():
    got = shake128(b"", 32).hex()
    if got != EMPTY_PREFIX_HEX:
        raise AssertionError(f"reference SHAKE128 broken: {got}")
    got = kangaroo_twelve(b"", b"", 32).hex()
    if got != K12_EMPTY_HEX:
        raise AssertionError(f"reference KangarooTwelve broken: {got}")


self_check()
