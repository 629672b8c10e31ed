"""On-disk interchange: the MRP binary container and the params text file.

The binary layout pins the exact wire bits a client would hand an
accelerator, so fixtures and cross-build comparisons are byte-exact.  All
integers are little-endian 32-bit words:

    magic      4 bytes  "MRPB"
    version    u32      1
    N, w, r    u32 each
    n_seg      u32
    backend    u32      0 = shake128, 1 = kangarootwelve
    L          u32      base size
    base       L x u32
    perm_kind  u32      0 = identity, 1 = reverse, 2 = explicit
    mapping    N x u32  only when perm_kind = 2
    limbs      L x N x u32, in base order

The limb section is a MultiResiduePolynomial's (L, N) array byte for byte:
write_mrp writes its buffer after the header and read_mrp returns a view of
the file's bytes, so neither copies a limb.  The header carries the full
generation profile so a stored polynomial can be re-derived and checked from
its seed alone.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FormatError, ParamsError
from .profiles import DEFAULT_R_BITS
from .sampling import GenParams, MultiResiduePolynomial, Permutation, _each_limb
from .xof import Seed

MAGIC = b"MRPB"
VERSION = 1

_BACKEND_IDS = {"shake128": 0, "kangarootwelve": 1}
_BACKEND_NAMES = {v: k for k, v in _BACKEND_IDS.items()}
_PERM_IDS = {"identity": 0, "reverse": 1, "explicit": 2}


def _u32s(values) -> bytes:
    return np.asarray(values, dtype="<u4").tobytes()


def _write_file(path, chunks) -> None:
    """Write the byte chunks to path through a temporary sibling and os.replace.

    An error or an interrupt mid-write removes the temporary file and leaves
    a previous file at path as it was.  The replacement keeps an existing
    file's permission bits and a symlink is followed, as writing in place
    would.  A target that exists but is not a regular file (/dev/null, a
    FIFO) is written in place, never replaced.  An OSError names path as
    the caller gave it, not the temporary file.
    """
    target = os.path.realpath(path)
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(target, "wb") as fh:
                fh.writelines(chunks)
            return
        head, tail = os.path.split(target)
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                if mode is not None:
                    os.chmod(tmp, stat.S_IMODE(mode))
                fh.writelines(chunks)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        exc.filename = os.fspath(path)
        del exc.filename2  # os.replace names the temporary file too
        raise


def write_mrp(path, mrp: MultiResiduePolynomial, params: GenParams) -> None:
    """Write mrp under params' header; ParamsError if they do not match."""
    if tuple(mrp.base) != params.base or mrp.coeffs.shape != (len(params.base), params.N):
        raise ParamsError(f"the polynomial (base {tuple(mrp.base)}, shape "
                          f"{mrp.coeffs.shape}) does not match the profile's base and N")
    perm_kind = _PERM_IDS[params.layout.kind]
    header = MAGIC + struct.pack(
        "<7I", VERSION, params.N, params.w, params.r, params.n_seg,
        _BACKEND_IDS[params.backend], len(params.base))
    header += _u32s(params.base) + struct.pack("<I", perm_kind)
    if perm_kind == 2:
        header += _u32s(params.layout.mapping)
    _write_file(path, (header, np.ascontiguousarray(mrp.coeffs, dtype="<u4")))


def _span(data: bytes, offset: int, size: int) -> bytes:
    """data[offset:offset + size]; FormatError if the file ends before it."""
    if offset + size > len(data):
        raise FormatError("truncated MRP file")
    return data[offset:offset + size]


def read_mrp(path) -> tuple[MultiResiduePolynomial, GenParams]:
    """Parse a container; the returned coeffs are a read-only view of its bytes."""
    data = Path(path).read_bytes()
    if _span(data, 0, 4) != MAGIC:
        raise FormatError("not an MRP file (bad magic)")
    (version,) = struct.unpack("<I", _span(data, 4, 4))
    if version != VERSION:
        raise FormatError(f"unsupported MRP version {version}")
    n_ring, w, r, n_seg, backend_id, base_len = struct.unpack("<6I", _span(data, 8, 24))
    if backend_id not in _BACKEND_NAMES:
        raise FormatError(f"unknown backend id {backend_id}")
    if r != DEFAULT_R_BITS:
        raise FormatError(f"MRP header r = {r}; a profile's block is {DEFAULT_R_BITS} bits")
    base = tuple(int(q) for q in np.frombuffer(_span(data, 32, 4 * base_len), dtype="<u4"))
    (perm_kind,) = struct.unpack("<I", _span(data, 32 + 4 * base_len, 4))
    if perm_kind not in _PERM_IDS.values():
        raise FormatError(f"unknown permutation kind {perm_kind}")
    # the raw scalars fix the body length; check it before anything sized
    # by N is built, so a header alone cannot make the reader allocate
    pos = 36 + 4 * base_len
    body = 4 * (base_len * n_ring + (n_ring if perm_kind == 2 else 0))
    if len(data) - pos < body:
        raise FormatError("truncated MRP file")
    if len(data) - pos > body:
        raise FormatError("trailing bytes after the last limb")
    try:
        params = GenParams(N=n_ring, w=w, seg_len=n_ring // n_seg if n_seg else 0,
                           n_seg=n_seg, base=base, backend=_BACKEND_NAMES[backend_id])
        if perm_kind == 1:
            params = replace(params, layout=Permutation.reverse(n_ring))
        elif perm_kind == 2:
            mapping = np.frombuffer(data, dtype="<u4", count=n_ring, offset=pos)
            params = replace(params, layout=Permutation(mapping))
            pos += 4 * n_ring
    except ParamsError as exc:
        raise FormatError(f"MRP header holds an invalid profile: {exc}") from exc
    coeffs = np.frombuffer(data, dtype="<u4", offset=pos).reshape(base_len, n_ring)
    return MultiResiduePolynomial(base=base, coeffs=coeffs), params


@dataclass
class VerifyReport:
    ok: bool
    detail: str = ""


def verify_mrp_file(path, seed: Seed) -> VerifyReport:
    """Recompute a stored polynomial from its seed and compare bit-exactly.

    Each regenerated limb is reduced to its first mismatch index (-1 for
    none) under the worker rule of sampling._each_limb, so no second (L, N)
    array is built, and the first mismatch in base order is named.  Every
    limb is generated even after a mismatch, so a short segment still
    raises GenerationFailure in base order, as generate_mrp would: a row is
    marked made, one bit, only once its index is stored, so this process
    meets a short row itself whoever met it first.
    """
    stored, params = read_mrp(path)

    def first_diff(row: int, limb: np.ndarray) -> int:
        differs = stored.coeffs[row] != limb
        return int(np.argmax(differs)) if differs.any() else -1

    diffs = _each_limb(seed, params, first_diff, (), np.int64)
    mismatched = np.flatnonzero(diffs >= 0)
    if not len(mismatched):
        return VerifyReport(ok=True)
    row = mismatched[0]
    return VerifyReport(ok=False, detail=f"limb q={params.base[row]} differs first at "
                                         f"index {diffs[row]}")


_PARAM_KEYS = ("N", "w", "r", "len", "n_seg", "base", "permutation", "backend")
_REQUIRED_KEYS = ("N", "w", "len", "n_seg", "base")


def load_params(path) -> GenParams:
    """Parse a key-value profile file into a validated GenParams.

    Recognized keys: N, w, r, len, n_seg, base (comma-separated moduli),
    permutation (identity | reverse | path of an index file, relative to the
    params file), backend.  Unknown keys are rejected by name; r is optional
    and, when given, must be the block's 1344 bits.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError:
        raise ParamsError(f"{path}: not a text file") from None
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamsError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARAM_KEYS:
            raise ParamsError(f"{path}:{lineno}: unknown key '{key}'")
        if key in fields:
            raise ParamsError(f"{path}:{lineno}: duplicate key '{key}'")
        fields[key] = value
    for key in _REQUIRED_KEYS:
        if key not in fields:
            raise ParamsError(f"{path}: missing required key '{key}'")
    try:
        base = tuple(int(tok) for tok in fields["base"].replace(",", " ").split())
    except ValueError:
        raise ParamsError(f"{path}: base must be a list of integers") from None
    if "r" in fields and _parse_int(fields, "r", path) != DEFAULT_R_BITS:
        raise ParamsError(f"{path}: key 'r' must be {DEFAULT_R_BITS}, one whole XOF block")
    params = GenParams(
        N=_parse_int(fields, "N", path),
        w=_parse_int(fields, "w", path),
        seg_len=_parse_int(fields, "len", path),
        n_seg=_parse_int(fields, "n_seg", path),
        base=base,
        backend=fields.get("backend", "shake128"),
    )
    # the layout is sized by N, so it is built only once N has been validated
    value = fields.get("permutation", "identity")
    if value == "identity":
        return params
    return replace(params, layout=_parse_permutation(value, params.N, path))


def _parse_int(fields: dict, key: str, path) -> int:
    try:
        return int(fields[key])
    except ValueError:
        raise ParamsError(f"{path}: key '{key}' must be an integer") from None


def _parse_permutation(value: str, n_ring: int, path: Path) -> Permutation:
    if value == "reverse":
        return Permutation.reverse(n_ring)
    perm_path = Path(value)
    if not perm_path.is_absolute():
        perm_path = Path(path).parent / perm_path
    if not perm_path.is_file():
        raise ParamsError(f"permutation index file not found: {perm_path}")
    try:
        indices = [int(tok) for tok in perm_path.read_text().split()]
    except ValueError:
        raise ParamsError(f"{perm_path}: permutation indices must be integers") from None
    return Permutation(indices)


def save_params(params: GenParams, path) -> None:
    """Serialize a profile so that load_params round-trips it.

    An explicit layout goes to the index file ``<file name>.perm`` beside it,
    so files that share a stem, or one named x.perm, keep their own layouts.
    """
    path = Path(path)
    if params.layout.kind in ("identity", "reverse"):
        perm_value = params.layout.kind
    else:
        perm_file = path.with_name(path.name + ".perm")
        perm_file.write_text(" ".join(str(i) for i in params.layout.mapping) + "\n")
        perm_value = perm_file.name
    lines = [
        f"N = {params.N}",
        f"w = {params.w}",
        f"r = {params.r}",
        f"len = {params.seg_len}",
        f"n_seg = {params.n_seg}",
        "base = " + ", ".join(str(q) for q in params.base),
        f"permutation = {perm_value}",
        f"backend = {params.backend}",
    ]
    path.write_text("\n".join(lines) + "\n")
