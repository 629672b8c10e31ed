import struct
from pathlib import Path

import pytest

from mrpgen import GenParams, Seed, is_ntt_friendly
from mrpgen.formats import MAGIC, VERSION

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def zero_seed() -> Seed:
    return Seed.zero()


@pytest.fixture
def desk_params() -> GenParams:
    # 256-coefficient ring, two small transform-friendly moduli, one block
    # per 32-word segment; matches the committed golden MRP fixture.
    return GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681, 10753))


def ntt_primes(n_ring: int, count: int, q_min: int = 2, q_max: int = 1 << 24):
    """First `count` primes q ≡ 1 (mod 2N) in [q_min, q_max)."""
    found = []
    step = 2 * n_ring
    q = step + 1
    if q < q_min:
        q += -(-(q_min - q) // step) * step
    while q < q_max and len(found) < count:
        if is_ntt_friendly(q, n_ring):
            found.append(q)
        q += step
    if len(found) < count:
        raise RuntimeError(f"not enough NTT-friendly primes below {q_max} for N={n_ring}")
    return found


def mrp_header(n_ring: int, n_seg: int, base=(7681,), perm_kind: int = 0) -> bytes:
    """An MRP container header (32-bit words, r = 1344, SHAKE128), no limbs."""
    return (MAGIC + struct.pack("<7I", VERSION, n_ring, 32, 1344, n_seg, 0, len(base))
            + struct.pack(f"<{len(base)}I", *base) + struct.pack("<I", perm_kind))


@pytest.fixture(scope="session")
def golden_xof_vectors():
    pairs = []
    for line in (FIXTURES / "xof_vectors.txt").read_text().splitlines():
        inp_hex, out_hex = line.split()
        data = b"" if inp_hex == "-" else bytes.fromhex(inp_hex)
        pairs.append((data, bytes.fromhex(out_hex)))
    return pairs


@pytest.fixture(scope="session")
def golden_segment():
    fields = {}
    for line in (FIXTURES / "golden_segment.txt").read_text().splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        fields[key] = value
    return {
        "seed": Seed.from_hex(fields["seed"]),
        "q": int(fields["q"]),
        "id_seg": int(fields["id_seg"]),
        "len": int(fields["len"]),
        "w": int(fields["w"]),
        "values": [int(tok) for tok in fields["values"].split()],
    }


@pytest.fixture(scope="session")
def golden_mrp():
    limbs = {}
    fields = {}
    for line in (FIXTURES / "golden_mrp.txt").read_text().splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("limb "):
            limbs[int(key.split()[1])] = [int(tok) for tok in value.split()]
        else:
            fields[key] = value
    return {
        "seed": Seed.from_hex(fields["seed"]),
        "N": int(fields["N"]),
        "len": int(fields["len"]),
        "n_seg": int(fields["n_seg"]),
        "base": tuple(int(tok) for tok in fields["base"].split()),
        "limbs": limbs,
    }
