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

The limb section is the polynomial's (L, N) array byte for byte, row i 4 N i
bytes after the header, so one limb can be written or read alone.  One
writer, _mrp_rows, writes every container a limb at a time: write_mrp's,
and the CLI's gen-mrp and retry-gen from the process that made each limb;
read_mrp returns the limb section as a view of the file's bytes, and
verify_mrp_file preads only the row it compares.  The header carries the
full generation profile so a stored polynomial can be re-derived and checked
from its seed alone.  Every file written goes through one crash-safe
protocol (_replacing): a temporary sibling, preallocated, then os.replace;
a target that is not a regular file (a FIFO, a pipe) is written in place.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import io
import os
import select
import stat
import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FormatError, ParamsError
from .profiles import DEFAULT_R_BITS
from .sampling import (GenParams, MultiResiduePolynomial, Permutation, _each_limb,
                       _shared_array)
from .xof import Seed

MAGIC = b"MRPB"
VERSION = 1

_BACKEND_IDS = {"shake128": 0, "kangarootwelve": 1}
_BACKEND_NAMES = {v: k for k, v in _BACKEND_IDS.items()}
_PERM_IDS = {"identity": 0, "reverse": 1, "explicit": 2}


def _u32s(values) -> bytes:
    return np.asarray(values, dtype="<u4").tobytes()


@contextlib.contextmanager
def _replacing(path, size: int):
    """The crash-safe output protocol of every file mrpgen writes.

    Yields a binary file of a new temporary sibling of path, preallocated to
    size bytes where os.posix_fallocate exists, and os.replaces it over path
    once the block is done.  An error or an interrupt in the block removes
    the temporary file and leaves a previous file at path as it was.  The
    replacement keeps an existing file's permission bits and a symlink is
    followed, as writing in place would.  A target that exists but is not a
    regular file, judged by path as given (/dev/null, a FIFO, /dev/stdout in
    a pipeline), is never replaced: the block gets it opened in place
    (_open_output).  An OSError names path as given, not the temporary file.
    """
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with _open_output(path) as fh:
                yield fh
            return
        target = os.path.realpath(path)
        head, tail = os.path.split(target)
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                if mode is not None:
                    os.chmod(tmp, stat.S_IMODE(mode))
                # allocated blocks spare the os.replace over an old file a
                # flush of delayed allocations (ext4's auto_da_alloc)
                if hasattr(os, "posix_fallocate"):
                    os.posix_fallocate(fd, 0, size)
                yield fh
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        exc.filename = os.fspath(path)
        del exc.filename2  # os.replace names the temporary file too
        raise


# How long a FIFO node may wait for its other end (_open_output, _open_input).
FIFO_WAIT_S = 2.0


def _open_output(path):
    """The existing target path, not a regular file, opened "wb" in place.

    A path that is itself a FIFO node is opened O_NONBLOCK, which fails with
    ENXIO while no process reads it, retried for up to FIFO_WAIT_S, then made
    blocking; any other target (a device, a link to a pipe) is opened
    blocking, as a shell redirection would open it.
    """
    if not stat.S_ISFIFO(os.lstat(path).st_mode):
        return open(path, "wb")
    deadline = time.monotonic() + FIFO_WAIT_S
    while True:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
            break
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                raise
            if time.monotonic() >= deadline:
                exc.strerror = f"a FIFO that no process read from within {FIFO_WAIT_S:g} s"
                raise
        time.sleep(0.01)
    os.set_blocking(fd, True)
    return open(fd, "wb")


def _pwrite(fd: int, data, offset: int) -> None:
    """Write all of data at offset: a short os.pwrite is continued, and a
    failed one raises (a full disk raises ENOSPC, it does not return 0)."""
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def _header(params: GenParams) -> bytes:
    perm_kind = _PERM_IDS[params.layout.kind]
    header = MAGIC + struct.pack(
        "<7I", VERSION, params.N, params.w, params.r, params.n_seg,
        _BACKEND_IDS[params.backend], len(params.base))
    header += _u32s(params.base) + struct.pack("<I", perm_kind)
    if perm_kind == 2:
        header += _u32s(params.layout.mapping)
    return header


def write_mrp(path, mrp: MultiResiduePolynomial, params: GenParams) -> None:
    """Write mrp under params' header; ParamsError if they do not match."""
    if tuple(mrp.base) != params.base or mrp.coeffs.shape != (len(params.base), params.N):
        raise ParamsError(f"the polynomial (base {tuple(mrp.base)}, shape "
                          f"{mrp.coeffs.shape}) does not match the profile's base and N")
    with _mrp_rows(path, params) as put:
        for row, limb in enumerate(mrp.coeffs):
            put(row, np.ascontiguousarray(limb, dtype="<u4"))


@contextlib.contextmanager
def _mrp_rows(path, params: GenParams):
    """The container at path written a limb at a time, in any order and from
    any process: yields put(row, limb), which stores the limb's "<u4" words
    as row.  Every container is written through it.

    A regular file is the temporary sibling of _replacing, given its header
    before the block, and put writes each row at its offset.  Any other
    target (a FIFO, a pipe, /dev/null) cannot be written at an offset: put
    stores each row in an (L, N) array that stays one array across os.fork
    (sampling._shared_array), and the header and the rows are written in
    order only when the block ends normally, so a failed run writes nothing.
    """
    header = _header(params)
    with _replacing(path, len(header) + 4 * len(params.base) * params.N) as fh:
        fd = fh.fileno()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            _pwrite(fd, header, 0)
            yield lambda row, limb: _pwrite(fd, limb, len(header) + row * 4 * params.N)
        else:
            staged = _shared_array((len(params.base), params.N), "<u4")
            yield staged.__setitem__
            fh.writelines((header, staged))


def _span(data: bytes, offset: int, size: int) -> bytes:
    """data[offset:offset + size]; FormatError if the file ends before it."""
    if offset + size > len(data):
        raise FormatError("truncated MRP file")
    return data[offset:offset + size]


def _pread(fd: int, length: int, offset: int, size: int) -> bytes:
    """size bytes of the length-byte file fd from offset; FormatError if the
    file ends before them, at length or, if it was cut since, earlier.

    A regular file's pread is short only at its end.
    """
    if offset + size > length:
        raise FormatError("truncated MRP file")
    data = os.pread(fd, size, offset)
    if len(data) < size:
        raise FormatError("truncated MRP file")
    return data


def _open_input(path, mode: str = "rb"):
    """The input file path, opened in mode, binary or text.

    A character or block device, whose reads may never end (/dev/zero), is
    refused before it is opened.  A path that is itself a FIFO node (made
    by mkfifo) is opened O_NONBLOCK, so one that no process writes cannot
    hang it: it is refused unless a writer sends bytes or closes within
    FIFO_WAIT_S, and is then read whole as any pipe.  A link to a pipe that
    already has its writer (/dev/stdin, a shell's <(...)) is read blocking,
    however long the writer takes.  Refusals are FormatErrors; load_params
    makes them ParamsErrors.
    """
    kind = os.stat(path).st_mode
    if stat.S_ISCHR(kind) or stat.S_ISBLK(kind):
        raise FormatError(f"{path}: a device, not an input file")
    # io.open is the builtin open; a plain directory raises as it would there
    if not stat.S_ISFIFO(os.lstat(path).st_mode):
        return io.open(path, mode)
    fh = io.open(path, mode, opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK))
    try:
        writer = select.poll()
        writer.register(fh.fileno(), select.POLLIN)
        if not writer.poll(FIFO_WAIT_S * 1000):
            raise FormatError(f"{path}: a FIFO that no process wrote to within "
                              f"{FIFO_WAIT_S:g} s")
        os.set_blocking(fh.fileno(), True)
    except BaseException:
        fh.close()
        raise
    return fh


def _read_header(read, length: int) -> tuple[GenParams, int]:
    """(params, offset of the limb section) of a length-byte container, whose
    bytes read(offset, size) returns, or raises FormatError past the end.

    The raw scalars fix the body length, and it is checked against length
    before anything sized by N is built, so a header alone cannot make the
    reader allocate.
    """
    if read(0, 4) != MAGIC:
        raise FormatError("not an MRP file (bad magic)")
    (version,) = struct.unpack("<I", read(4, 4))
    if version != VERSION:
        raise FormatError(f"unsupported MRP version {version}")
    n_ring, w, r, n_seg, backend_id, base_len = struct.unpack("<6I", read(8, 24))
    if backend_id not in _BACKEND_NAMES:
        raise FormatError(f"unknown backend id {backend_id}")
    if r != DEFAULT_R_BITS:
        raise FormatError(f"MRP header r = {r}; a profile's block is {DEFAULT_R_BITS} bits")
    base = tuple(int(q) for q in np.frombuffer(read(32, 4 * base_len), dtype="<u4"))
    (perm_kind,) = struct.unpack("<I", read(32 + 4 * base_len, 4))
    if perm_kind not in _PERM_IDS.values():
        raise FormatError(f"unknown permutation kind {perm_kind}")
    pos = 36 + 4 * base_len
    body = 4 * (base_len * n_ring + (n_ring if perm_kind == 2 else 0))
    if length - pos < body:
        raise FormatError("truncated MRP file")
    if length - pos > body:
        raise FormatError("trailing bytes after the last limb")
    try:
        params = GenParams(N=n_ring, w=w, seg_len=n_ring // n_seg if n_seg else 0,
                           n_seg=n_seg, base=base, backend=_BACKEND_NAMES[backend_id])
        if perm_kind == 1:
            params = replace(params, layout=Permutation.reverse(n_ring))
        elif perm_kind == 2:
            mapping = np.frombuffer(read(pos, 4 * n_ring), dtype="<u4")
            params = replace(params, layout=Permutation(mapping))
            pos += 4 * n_ring
    except ParamsError as exc:
        raise FormatError(f"MRP header holds an invalid profile: {exc}") from exc
    return params, pos


def read_mrp(path) -> tuple[np.ndarray, GenParams]:
    """Parse a container into (coeffs, params): coeffs is the (L, N) limb
    section, row i the limb of params.base[i], a read-only view of the file."""
    with _open_input(path) as fh:
        data = fh.read()
    params, pos = _read_header(functools.partial(_span, data), len(data))
    return np.frombuffer(data, dtype="<u4", offset=pos).reshape(len(params.base), params.N), params


@dataclass
class VerifyReport:
    ok: bool
    detail: str = ""


def verify_mrp_file(path, seed: Seed) -> VerifyReport:
    """Recompute a stored polynomial from its seed and compare bit-exactly.

    The header is read once; the process that regenerates a limb under the
    worker rule of sampling._each_limb preads the stored row it compares
    and keeps only its first mismatch index (-1 for none), so no (L, N)
    array is built or read.  A row the file no longer holds, cut since its
    length was checked, is a FormatError in whichever process meets it.
    The first mismatch in base order is named.  Every limb is generated
    even after a mismatch, so a short segment still raises GenerationFailure
    in base order, as generate_mrp would: a row is marked made, one bit,
    only once its index is stored, so this process meets a short row itself
    whoever met it first.  A stored file that is not regular (a pipe) is
    read whole first, as read_mrp does.
    """
    with _open_input(path) as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            length = info.st_size
            read = functools.partial(_pread, fh.fileno(), length)
        else:
            data = fh.read()
            length = len(data)
            read = functools.partial(_span, data)
        params, pos = _read_header(read, length)

        def first_diff(row: int, limb: np.ndarray) -> int:
            stored = read(pos + 4 * params.N * row, 4 * params.N)
            differs = np.frombuffer(stored, dtype="<u4") != limb
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
        with _open_input(path, "r") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ParamsError(f"{path}: not a text file") from None
    except FormatError as exc:
        raise ParamsError(str(exc)) from None
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
    """Serialize a profile so that load_params round-trips it, each file
    under _replacing.  An explicit layout goes to the index file
    ``<file name>.perm`` beside it, so files that share a stem, or one named
    x.perm, keep their own layouts."""
    path, files = Path(path), []
    perm_value = params.layout.kind
    if perm_value == "explicit":
        perm_value = path.name + ".perm"
        files.append((path.with_name(perm_value), " ".join(map(str, params.layout.mapping))))
    fields = {"N": params.N, "w": params.w, "r": params.r, "len": params.seg_len,
              "n_seg": params.n_seg, "base": ", ".join(map(str, params.base)),
              "permutation": perm_value, "backend": params.backend}
    files.append((path, "\n".join(f"{key} = {value}" for key, value in fields.items())))
    for target, text in files:
        data = (text + "\n").encode()
        with _replacing(target, len(data)) as fh:
            fh.writelines((data,))
