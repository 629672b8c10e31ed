import struct
from pathlib import Path

import pytest

from mrpgen import GenParams, Seed, is_ntt_friendly
from mrpgen.formats import MAGIC, VERSION

from schedules import forking, no_child_left, splitting

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(autouse=True)
def no_helper_leaks():
    """No test leaves generate_limb's row helper, or any other child, behind."""
    yield
    no_child_left()


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """The limb helper is forked at any size (see schedules.forking); the
    pids os.fork handed out."""
    with forking(monkeypatch) as pids:
        yield pids


@pytest.fixture
def split(monkeypatch) -> None:
    """generate_limb splits any limb of two rows or more (see schedules.splitting)."""
    with splitting(monkeypatch):
        yield


@pytest.fixture
def zero_seed() -> Seed:
    return Seed(bytes(36))


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


def _read_fields(name: str) -> tuple[dict, dict]:
    """``key = value`` lines of a fixture; ``limb <q>`` lines go to the second dict."""
    fields, limbs = {}, {}
    for line in (FIXTURES / name).read_text().splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("limb "):
            limbs[int(key.split()[1])] = [int(tok) for tok in value.split()]
        else:
            fields[key] = value
    return fields, limbs


def _load_segment(name: str) -> dict:
    fields, _ = _read_fields(name)
    return {
        "backend": fields.get("backend", "shake128"),
        "seed": Seed.from_hex(fields["seed"]),
        "q": int(fields["q"]),
        "id_seg": int(fields["id_seg"]),
        "len": int(fields["len"]),
        "w": int(fields["w"]),
        "values": [int(tok) for tok in fields["values"].split()],
    }


def _load_mrp(name: str) -> dict:
    fields, limbs = _read_fields(name)
    return {
        "backend": fields.get("backend", "shake128"),
        "seed": Seed.from_hex(fields["seed"]),
        "N": int(fields["N"]),
        "len": int(fields["len"]),
        "n_seg": int(fields["n_seg"]),
        "base": tuple(int(tok) for tok in fields["base"].split()),
        "limbs": limbs,
    }


@pytest.fixture(scope="session")
def golden_segment():
    return _load_segment("golden_segment.txt")


@pytest.fixture(scope="session")
def golden_mrp():
    return _load_mrp("golden_mrp.txt")


@pytest.fixture(scope="session")
def golden_k12_segment():
    return _load_segment("golden_k12_segment.txt")


@pytest.fixture(scope="session")
def golden_k12_mrp():
    return _load_mrp("golden_k12_mrp.txt")


@pytest.fixture(scope="session")
def golden_k12_limb():
    fields, _ = _read_fields("golden_k12_limb.txt")
    return {
        "backend": fields["backend"],
        "seed": Seed.from_hex(fields["seed"]),
        "N": int(fields["N"]),
        "len": int(fields["len"]),
        "n_seg": int(fields["n_seg"]),
        "q": int(fields["q"]),
        "head": [int(tok) for tok in fields["head"].split()],
        "sha256": fields["sha256"],
    }
