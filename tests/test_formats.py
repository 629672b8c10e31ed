import errno
import functools
import os
import stat
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mrp_header, ntt_primes
from schedules import caller_waits_for_helper, within
from mrpgen import (FormatError, GenerationFailure, GenParams, MrpgenError,
                    MultiResiduePolynomial, ParamsError, Permutation, Seed, cli, formats,
                    generate_mrp, load_params, read_mrp, sampling, save_params,
                    verify_mrp_file, write_mrp)


@pytest.fixture
def stored_mrp(tmp_path, desk_params, zero_seed):
    mrp = generate_mrp(zero_seed, desk_params)
    path = tmp_path / "poly.mrp"
    write_mrp(path, mrp, desk_params)
    return path, mrp, desk_params


class TestMrpContainer:
    def test_round_trip(self, stored_mrp):
        path, mrp, params = stored_mrp
        loaded, loaded_params = read_mrp(path)
        assert loaded_params == params
        assert np.array_equal(loaded, mrp.coeffs)

    def test_an_old_explicit_identity_header_reads_and_verifies(self, tmp_path, zero_seed):
        # kind 2 with the identity's N mapping words, as files were written
        # before an explicit identity was stored as kind 0
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,))
        limbs = generate_mrp(zero_seed, params).coeffs
        path = tmp_path / "old.mrp"
        path.write_bytes(mrp_header(256, 8, perm_kind=2)
                         + np.arange(256, dtype="<u4").tobytes() + limbs.astype("<u4").tobytes())
        stored, stored_params = read_mrp(path)
        assert stored_params.layout.kind == "identity"
        assert stored_params == params
        assert np.array_equal(stored, limbs)
        assert verify_mrp_file(path, zero_seed).ok

    def test_round_trip_explicit_permutation(self, tmp_path, zero_seed):
        rng = np.random.default_rng(9)
        layout = Permutation(rng.permutation(256))
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,),
                           layout=layout)
        mrp = generate_mrp(zero_seed, params)
        path = tmp_path / "perm.mrp"
        write_mrp(path, mrp, params)
        loaded, loaded_params = read_mrp(path)
        assert loaded_params.layout == layout
        assert np.array_equal(loaded[0], mrp.coeffs[0])

    @pytest.mark.parametrize("layout", [
        Permutation.identity(256), Permutation.reverse(256),
        Permutation(np.random.default_rng(5).permutation(256)),
        Permutation(np.arange(256)), Permutation(np.arange(256)[::-1]),
    ], ids=["identity", "reverse", "explicit", "explicit-identity", "explicit-reverse"])
    def test_every_accepted_layout_round_trips(self, tmp_path, zero_seed, layout):
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681, 10753),
                           layout=layout)
        path = tmp_path / "layout.mrp"
        write_mrp(path, generate_mrp(zero_seed, params), params)
        assert read_mrp(path)[1] == params
        assert verify_mrp_file(path, zero_seed).ok
        save_params(params, tmp_path / "layout.params")
        assert load_params(tmp_path / "layout.params") == params

    def test_write_refuses_a_polynomial_of_another_base(self, tmp_path, desk_params,
                                                        zero_seed):
        # a longer base would read back as truncated, a same-shape other base
        # as a valid-looking file that fails verify
        primes = ntt_primes(256, 3)
        assert desk_params.base == tuple(primes[:2])
        longer, other = desk_params.with_base(primes), desk_params.with_base(primes[::2])
        path = tmp_path / "x.mrp"
        for params in (longer, other):
            with pytest.raises(ParamsError, match="does not match"):
                write_mrp(path, generate_mrp(zero_seed, desk_params), params)
        assert not path.exists()

    def test_write_refuses_a_polynomial_of_another_ring(self, tmp_path, desk_params):
        mrp = MultiResiduePolynomial(desk_params.base, np.zeros((2, 128), np.uint32))
        with pytest.raises(ParamsError, match="does not match"):
            write_mrp(tmp_path / "x.mrp", mrp, desk_params)

    def test_verify_accepts_own_output(self, stored_mrp, zero_seed):
        path, _, _ = stored_mrp
        assert verify_mrp_file(path, zero_seed).ok

    def test_verify_flags_corruption(self, stored_mrp, zero_seed):
        path, _, _ = stored_mrp
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        report = verify_mrp_file(path, zero_seed)
        assert not report.ok
        assert "q=" in report.detail

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_verify_reads_a_pipe_whole(self, stored_mrp, zero_seed):
        # a pipe has no offsets to pread, so its bytes are read first
        path, _, _ = stored_mrp
        fifo = path.parent / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()),
                                  daemon=True)
        writer.start()
        try:
            assert verify_mrp_file(fifo, zero_seed).ok
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("reader", ["verify_mrp_file", "read_mrp", "load_params"])
    def test_a_pipe_whose_writer_is_slow_is_waited_for(self, monkeypatch, stored_mrp,
                                                       zero_seed, reader):
        # /dev/fd/N, as /dev/stdin or a shell's <(...), links to a pipe that
        # already has its writer: its first bytes are waited for past the
        # bound that refuses a FIFO node no process writes
        path, mrp, params = stored_mrp
        if reader == "load_params":
            save_params(params, path)
        monkeypatch.setattr(formats, "FIFO_WAIT_S", 0.05)
        read_end, write_end = os.pipe()

        def write_late():
            time.sleep(0.5)
            with os.fdopen(write_end, "wb") as fh:
                fh.write(path.read_bytes())

        writer = threading.Thread(target=write_late, daemon=True)
        writer.start()
        try:
            got = {"verify_mrp_file": lambda name: verify_mrp_file(name, zero_seed).ok,
                   "read_mrp": lambda name: np.array_equal(read_mrp(name)[0], mrp.coeffs),
                   "load_params": lambda name: load_params(name) == params,
                   }[reader](f"/dev/fd/{read_end}")
        finally:
            writer.join(timeout=10)
            os.close(read_end)
        assert got and not writer.is_alive()

    def test_verify_flags_wrong_seed(self, stored_mrp):
        from mrpgen import Seed
        path, _, _ = stored_mrp
        other = Seed(bytes([1]) + bytes(35))
        assert not verify_mrp_file(path, other).ok

    def test_verify_names_the_first_mismatch_in_base_order(self, tmp_path, zero_seed):
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=tuple(ntt_primes(256, 3)))
        coeffs = generate_mrp(zero_seed, params).coeffs.copy()
        coeffs[2, 5] ^= 1
        coeffs[1, 200] ^= 1
        coeffs[1, 9] ^= 1
        path = tmp_path / "bad.mrp"
        write_mrp(path, MultiResiduePolynomial(params.base, coeffs), params)
        report = verify_mrp_file(path, zero_seed)
        assert not report.ok
        assert report.detail == f"limb q={params.base[1]} differs first at index 9"

    def test_verify_generates_every_limb_after_a_mismatch(self, tmp_path, zero_seed):
        # limb 0 differs (all zeros, p_r below 1/16); limb 1 has p_r near 1/2, so
        # 64 acceptances among 84 words never happen and its segment is short
        good = ntt_primes(64, 1, q_min=61440, q_max=1 << 16)[0]
        short = ntt_primes(64, 1, q_min=1 << 15, q_max=1 << 16)[0]
        params = GenParams(N=64, w=16, seg_len=64, n_seg=1, base=(good, short))
        path = tmp_path / "short.mrp"
        write_mrp(path, MultiResiduePolynomial(params.base, np.zeros((2, 64), np.uint32)),
                  params)
        with pytest.raises(GenerationFailure) as err:
            verify_mrp_file(path, zero_seed)
        assert (err.value.q, err.value.id_seg) == (short, 0)

    def test_verify_holds_one_limb_at_a_time(self, tmp_path, zero_seed):
        # a ~1 MiB container: verify keeps the file's bytes and one limb, not
        # a second (L, N) array and its mismatch mask
        params = GenParams(N=1 << 12, w=32, seg_len=32, n_seg=1 << 7,
                           base=tuple(ntt_primes(1 << 12, 64)))
        path = tmp_path / "big.mrp"
        write_mrp(path, generate_mrp(zero_seed, params), params)
        tracemalloc.start()
        try:
            report = verify_mrp_file(path, zero_seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 1.25 * path.stat().st_size

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mrp"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError):
            read_mrp(path)

    def test_rejects_truncation(self, stored_mrp, zero_seed):
        path, _, _ = stored_mrp
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 7])
        with pytest.raises(FormatError, match="truncated MRP file"):
            read_mrp(path)
        with pytest.raises(FormatError, match="truncated MRP file"):
            verify_mrp_file(path, zero_seed)

    def test_rejects_trailing_garbage(self, stored_mrp, zero_seed):
        path, _, _ = stored_mrp
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
            read_mrp(path)
        with pytest.raises(FormatError, match="trailing bytes"):
            verify_mrp_file(path, zero_seed)

    def test_rejects_zero_segment_count(self, tmp_path):
        path = tmp_path / "zero.mrp"
        path.write_bytes(mrp_header(256, 0) + bytes(4 * 256))
        with pytest.raises(FormatError, match="seg_len"):
            read_mrp(path)

    @pytest.mark.parametrize("perm_kind", [0, 1])
    def test_rejects_oversized_ring_before_allocating(self, tmp_path, zero_seed, perm_kind):
        # N = 2^23 exceeds 42 words x 2^16 segments; N = 2^21 is a valid
        # profile whose limbs are missing; a base of 2^30 moduli is longer
        # than the file.  No header alone may make the reader or verify
        # build or read anything sized by it.
        for n_ring, base, base_len in ((1 << 23, (7681,), 1), (1 << 21, (104857601,), 1),
                                       (256, (7681,), 1 << 30)):
            path = tmp_path / "huge.mrp"
            header = bytearray(mrp_header(n_ring, 1 << 16, base=base, perm_kind=perm_kind))
            header[28:32] = base_len.to_bytes(4, "little")
            path.write_bytes(header)
            for read in (read_mrp, functools.partial(verify_mrp_file, seed=zero_seed)):
                tracemalloc.start()
                try:
                    with pytest.raises(FormatError):
                        read(path)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1 << 20, (n_ring, base_len)

    def test_file_path_copies_no_limb(self, tmp_path, zero_seed):
        # a ~1 MiB container: writing streams the (L, N) array and reading
        # returns a view of the file's bytes, so neither holds a second copy
        params = GenParams(N=1 << 12, w=32, seg_len=32, n_seg=1 << 7,
                           base=tuple(ntt_primes(1 << 12, 64)))
        mrp = generate_mrp(zero_seed, params)
        path = tmp_path / "big.mrp"
        tracemalloc.start()
        try:
            write_mrp(path, mrp, params)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded, _ = read_mrp(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > mrp.coeffs.nbytes
        assert write_peak < 0.25 * size
        assert read_peak < 1.25 * size
        assert np.array_equal(loaded, mrp.coeffs)


class TestCrashSafeOutput:
    @staticmethod
    def _writers(tmp_path, mrp, params):
        params_file = tmp_path / "desk.params"
        save_params(params, params_file)
        flipped = MultiResiduePolynomial(mrp.base, mrp.coeffs ^ 1)
        return {
            "write_mrp": lambda path: write_mrp(path, flipped, params),
            "gen-limb": lambda path: cli.main(["gen-limb", "--seed", "11" * 36, "--params",
                                               str(params_file), "--q", "7681",
                                               "--out", str(path)]),
            "gen-mrp": lambda path: cli.main(["gen-mrp", "--seed", "11" * 36, "--params",
                                              str(params_file), "--out", str(path)]),
            "retry-gen": lambda path: cli.main(["retry-gen", "--params", str(params_file),
                                                "--out", str(path)]),
            "save_params": lambda path: save_params(params, path),
        }

    @pytest.mark.parametrize("writer, fault", [
        pytest.param("write_mrp", "pwrite", id="write_mrp"),
        pytest.param("gen-limb", "write", id="gen-limb"),
        pytest.param("gen-mrp", "pwrite", id="gen-mrp"),
        pytest.param("retry-gen", "pwrite", id="retry-gen"),
        pytest.param("save_params", "write", id="save_params"),
        *(pytest.param(writer, "fallocate", id=f"{writer}-fallocate")
          for writer in ("write_mrp", "gen-limb", "gen-mrp", "retry-gen", "save_params")),
    ])
    def test_a_failed_body_write_keeps_the_old_file(self, stored_mrp, monkeypatch, capsys,
                                                     writer, fault):
        path, mrp, params = stored_mrp
        write = self._writers(path.parent, mrp, params)[writer]
        old, real_open, real_pwrite = path.read_bytes(), open, os.pwrite

        def full():
            return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class DiskFull:
            """A file that takes half of what it is given, then fails as a full
            disk does."""

            def __init__(self, *args):
                self.fh = real_open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def writelines(self, chunks):
                data = b"".join(bytes(chunk) for chunk in chunks)
                self.fh.write(data[:len(data) // 2])
                self.fh.flush()
                raise full()

        def pwrite(fd, data, offset):
            # the header goes in; the first limb half does, then the disk is full
            if offset:
                real_pwrite(fd, bytes(data)[:len(data) // 2], offset)
                raise full()
            return real_pwrite(fd, data, offset)

        def fallocate(fd, offset, size):
            raise full()

        if fault == "write":
            monkeypatch.setattr(formats, "open", DiskFull, raising=False)
        elif fault == "pwrite":
            monkeypatch.setattr(os, "pwrite", pwrite)
        else:
            monkeypatch.setattr(os, "posix_fallocate", fallocate, raising=False)
        if writer in ("write_mrp", "save_params"):
            with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
                write(path)
        else:
            assert write(path) == 2
            assert capsys.readouterr() == ("", f"error code=io-error {full()}: {str(path)!r}\n")
        assert path.read_bytes() == old
        assert sorted(p.name for p in path.parent.iterdir()) == ["desk.params", path.name]

    @pytest.mark.parametrize("fault", ["short", "helper-full", "no-fallocate"])
    @pytest.mark.parametrize("writer", ["gen-mrp", "retry-gen"])
    def test_a_limb_write_that_comes_up_short_is_finished(self, tmp_path, monkeypatch,
                                                          capsys, forked, writer, fault):
        # "short": every pwrite takes at most 1000 bytes; "helper-full": the
        # helper writes half its first limb and meets a full disk, so this
        # process, which waits for it to exit, makes and writes that limb
        # again; "no-fallocate": a platform without it writes unallocated
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=tuple(ntt_primes(256, 5)))
        mrp = generate_mrp(Seed(bytes([0x11]) * 36), params)
        write = self._writers(tmp_path, mrp, params)[writer]
        write(tmp_path / "expected.mrp")
        assert capsys.readouterr().err == ""
        parent, real_pwrite = os.getpid(), os.pwrite
        met = tmp_path / "met"  # a directory, so a helper's fault shows in this process

        def pwrite(fd, data, offset):
            if fault == "short":
                return real_pwrite(fd, bytes(data)[:1000], offset)
            if os.getpid() != parent and offset and not met.exists():
                met.mkdir()
                real_pwrite(fd, bytes(data)[:len(data) // 2], offset)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_pwrite(fd, data, offset)

        if fault == "no-fallocate":
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        else:
            monkeypatch.setattr(os, "pwrite", pwrite)
        monkeypatch.setattr(sampling, "generate_limb", caller_waits_for_helper(forked, []))
        del forked[:]
        assert write(tmp_path / "got.mrp") == 0
        assert capsys.readouterr().err == ""
        assert len(forked) == 1
        assert met.exists() == (fault == "helper-full")
        assert (tmp_path / "got.mrp").read_bytes() == (tmp_path / "expected.mrp").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == [
            "desk.params", "expected.mrp", "got.mrp"]

    @pytest.mark.parametrize("writer", ["write_mrp", "gen-limb", "gen-mrp", "retry-gen",
                                        "save_params"])
    def test_a_rewrite_keeps_the_mode_and_follows_a_symlink(self, stored_mrp, capsys,
                                                             writer):
        path, mrp, params = stored_mrp
        write = self._writers(path.parent, mrp, params)[writer]
        path.chmod(0o600)
        link = path.parent / "link.mrp"
        link.symlink_to(path.name)
        old = path.read_bytes()
        assert write(link) in (None, 0)
        assert link.is_symlink() and path.read_bytes() != old
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert sorted(p.name for p in path.parent.iterdir()) == ["desk.params", "link.mrp",
                                                                  path.name]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_fifo_is_written_in_place(self, tmp_path, desk_params, zero_seed):
        mrp = generate_mrp(zero_seed, desk_params)
        expected = tmp_path / "file.mrp"
        write_mrp(expected, mrp, desk_params)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            write_mrp(fifo, mrp, desk_params)
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [expected.read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.mrp", "pipe"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("writer", ["write_mrp", "gen-limb", "gen-mrp", "retry-gen",
                                        "save_params"])
    def test_a_link_to_a_pipe_is_written_in_place(self, stored_mrp, capsys, writer):
        # /dev/fd/N names a pipe (as /dev/stdout in a pipeline and a shell's
        # >(...) do) whose link resolves to no path: it gets a file's bytes
        path, mrp, params = stored_mrp
        write = self._writers(path.parent, mrp, params)[writer]
        assert write(path) in (None, 0)
        r, w = os.pipe()
        got = []

        def read():
            with open(r, "rb") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            assert write(f"/dev/fd/{w}") in (None, 0)
        finally:
            os.close(w)
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert capsys.readouterr().err == ""
        assert got == [path.read_bytes()]
        assert sorted(p.name for p in path.parent.iterdir()) == ["desk.params", path.name]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("writer", ["write_mrp", "gen-limb", "gen-mrp", "retry-gen",
                                        "save_params"])
    def test_a_fifo_that_no_process_reads_is_refused(self, stored_mrp, monkeypatch, capsys,
                                                     writer):
        # the open does not block: it is retried for FIFO_WAIT_S, then refused
        path, mrp, params = stored_mrp
        write = self._writers(path.parent, mrp, params)[writer]
        monkeypatch.setattr(formats, "FIFO_WAIT_S", 0.1)
        fifo = path.parent / "pipe"
        os.mkfifo(fifo)
        message = (f"[Errno {errno.ENXIO}] a FIFO that no process read from within 0.1 s: "
                   f"{str(fifo)!r}")
        start = time.monotonic()
        with within(10):
            if writer in ("write_mrp", "save_params"):
                with pytest.raises(OSError) as err:
                    write(fifo)
                assert str(err.value) == message
            else:
                assert write(fifo) == 2
                assert capsys.readouterr() == ("", f"error code=io-error {message}\n")
        assert time.monotonic() - start >= 0.1
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in path.parent.iterdir()) == ["desk.params", "pipe",
                                                                  path.name]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("writer", ["gen-mrp", "retry-gen"])
    def test_a_fifo_out_gets_the_whole_file_in_order(self, tmp_path, monkeypatch, capsys,
                                                     forked, zero_seed, writer):
        # a pipe cannot be written at an offset: the CLI makes the polynomial
        # whole, then writes it in order, with the summaries of a file
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=tuple(ntt_primes(256, 5)))
        write = self._writers(tmp_path, generate_mrp(zero_seed, params), params)[writer]
        assert write(tmp_path / "file.mrp") == 0
        summaries = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("limb_sha256.")]
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        monkeypatch.setattr(os, "pwrite", None)
        try:
            assert write(fifo) == 0
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [(tmp_path / "file.mrp").read_bytes()]
        assert summaries and [line for line in capsys.readouterr().out.splitlines()
                              if line.startswith("limb_sha256.")] == summaries
        assert sorted(p.name for p in tmp_path.iterdir()) == ["desk.params", "file.mrp",
                                                             "pipe"]


class TestForkedVerify:
    """Five limbs: this process compares rows from 0 up, the helper from 4 down."""

    @staticmethod
    def _stored(tmp_path, seed, coeffs=None):
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=tuple(ntt_primes(256, 5)))
        if coeffs is None:
            coeffs = generate_mrp(seed, params).coeffs
        path = tmp_path / "forked.mrp"
        write_mrp(path, MultiResiduePolynomial(params.base, coeffs), params)
        return path, params

    def test_accepts_own_output(self, tmp_path, forked, zero_seed):
        path, _ = self._stored(tmp_path, zero_seed)
        del forked[:]
        assert verify_mrp_file(path, zero_seed).ok
        assert len(forked) == 1

    def test_names_the_first_mismatch_in_base_order(self, tmp_path, monkeypatch, forked,
                                                    zero_seed):
        path, params = self._stored(tmp_path, zero_seed)
        coeffs = read_mrp(path)[0].copy()
        coeffs[4, 3] ^= 1
        coeffs[3, 0] ^= 1
        coeffs[2, 200] ^= 1
        coeffs[2, 100] ^= 1
        path, _ = self._stored(tmp_path, zero_seed, coeffs)
        del forked[:]
        report = verify_mrp_file(path, zero_seed)
        assert len(forked) == 1
        assert not report.ok
        assert report.detail == f"limb q={params.base[2]} differs first at index 100"
        monkeypatch.setattr(sampling, "MIN_FORK_BLOCKS", 1 << 30)
        assert verify_mrp_file(path, zero_seed) == report
        assert len(forked) == 1

    def test_a_short_row_outranks_a_mismatch(self, tmp_path, forked, zero_seed):
        # every row mismatches (all zeros); rows 2 and 4 regenerate short
        good = iter(ntt_primes(64, 3, q_min=61440, q_max=1 << 16))
        short = iter(ntt_primes(64, 2, q_min=1 << 15, q_max=1 << 16))
        base = tuple(next(short) if row in (2, 4) else next(good) for row in range(5))
        params = GenParams(N=64, w=16, seg_len=64, n_seg=1, base=base)
        path = tmp_path / "short.mrp"
        write_mrp(path, MultiResiduePolynomial(base, np.zeros((5, 64), np.uint32)), params)
        with pytest.raises(GenerationFailure) as err:
            verify_mrp_file(path, zero_seed)
        assert (err.value.q, err.value.id_seg) == (base[2], 0)
        assert len(forked) == 1


    @pytest.mark.parametrize("helper", [False, True], ids=["serial", "helper"])
    def test_a_file_cut_after_its_length_check_is_a_format_error(self, tmp_path, monkeypatch,
                                                                capsys, forked, zero_seed,
                                                                helper):
        # the first limb made cuts the file mid-row 0, so the pread of its
        # stored row comes up short; a helper that meets that exits, and this
        # process, which waits for it, meets the cut again and raises it
        path, params = self._stored(tmp_path, zero_seed)
        cut = path.stat().st_size - 5 * 4 * params.N + 2 * params.N
        made_here = []
        real = caller_waits_for_helper(forked, made_here)

        def cutting(seed, q, p):
            if path.stat().st_size > cut:
                os.truncate(path, cut)
            return real(seed, q, p)

        monkeypatch.setattr(sampling, "generate_limb", cutting)
        if not helper:
            monkeypatch.setattr(sampling, "MIN_FORK_BLOCKS", 1 << 30)
        del forked[:]
        code = cli.main(["verify", "--seed", zero_seed.hex(), "--mrp", str(path)])
        assert (code, *capsys.readouterr()) == (2, "", "error code=format-error "
                                                       "truncated MRP file\n")
        assert len(forked) == helper
        assert made_here == [params.base[0]]


class TestParamsFile:
    def test_round_trip(self, tmp_path, desk_params):
        path = tmp_path / "profile.params"
        save_params(desk_params, path)
        loaded = load_params(path)
        assert loaded == desk_params

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_is_read_whole(self, tmp_path, desk_params):
        path, fifo = tmp_path / "profile.params", tmp_path / "pipe"
        save_params(desk_params, path)
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()),
                                  daemon=True)
        writer.start()
        try:
            assert load_params(fifo) == desk_params
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_round_trip_reverse_layout(self, tmp_path):
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,),
                           layout=Permutation.reverse(256))
        path = tmp_path / "rev.params"
        save_params(params, path)
        assert load_params(path).layout == Permutation.reverse(256)

    @pytest.mark.parametrize("mapping, name", [(np.arange(256), "identity"),
                                               (np.arange(256)[::-1], "reverse")],
                             ids=["identity", "reverse"])
    def test_an_explicit_involution_is_saved_by_name(self, tmp_path, mapping, name):
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,),
                           layout=Permutation(mapping))
        path = tmp_path / "named.params"
        save_params(params, path)
        assert f"permutation = {name}\n" in path.read_text()
        assert [p.name for p in tmp_path.iterdir()] == ["named.params"]  # no .perm file

    def test_round_trip_explicit_layout(self, tmp_path):
        rng = np.random.default_rng(4)
        layout = Permutation(rng.permutation(256))
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,),
                           layout=layout)
        path = tmp_path / "explicit.params"
        save_params(params, path)
        assert load_params(path).layout == layout

    def test_profiles_that_share_a_stem_keep_their_own_layouts(self, tmp_path):
        rng = np.random.default_rng(6)
        layouts = {name: Permutation(rng.permutation(256)) for name in ("a.params", "a.cfg")}
        for name, layout in layouts.items():
            save_params(GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,),
                                  layout=layout), tmp_path / name)
        for name, layout in layouts.items():
            assert load_params(tmp_path / name).layout == layout

    def test_a_params_file_named_like_an_index_file_round_trips(self, tmp_path):
        layout = Permutation(np.random.default_rng(7).permutation(256))
        path = tmp_path / "x.perm"
        save_params(GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,),
                              layout=layout), path)
        assert load_params(path).layout == layout

    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("""
# profile
N = 256     # ring
w = 32
len = 32
n_seg = 8
base = 7681 , 10753
""")
        params = load_params(path)
        assert params.base == (7681, 10753)
        assert params.r == 1344 and params.backend == "shake128"

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("N = 256\nw = 32\nlen = 32\nn_seg = 8\nbase = 7681\nrate = 9\n")
        with pytest.raises(ParamsError, match="unknown key 'rate'"):
            load_params(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("N = 256\nN = 512\nw = 32\nlen = 32\nn_seg = 8\nbase = 7681\n")
        with pytest.raises(ParamsError, match="duplicate"):
            load_params(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("N = 256\nw = 32\nlen = 32\nbase = 7681\n")
        with pytest.raises(ParamsError, match="n_seg"):
            load_params(path)

    def test_shape_invariant_enforced(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("N = 256\nw = 32\nlen = 32\nn_seg = 4\nbase = 7681\n")
        with pytest.raises(ParamsError, match="seg_len"):
            load_params(path)

    def test_bad_modulus_named(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("N = 256\nw = 32\nlen = 32\nn_seg = 8\nbase = 7687\n")
        with pytest.raises(ParamsError, match="7687"):
            load_params(path)

    def test_non_integer_r_is_a_params_error(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("N = 256\nw = 32\nr = abc\nlen = 32\nn_seg = 8\nbase = 7681\n")
        with pytest.raises(ParamsError, match="'r'"):
            load_params(path)

    def test_non_integer_permutation_index(self, tmp_path):
        (tmp_path / "bad.perm").write_text("0 1 two 3\n")
        path = tmp_path / "p.params"
        path.write_text("N = 256\nw = 32\nlen = 32\nn_seg = 8\nbase = 7681\n"
                        "permutation = bad.perm\n")
        with pytest.raises(ParamsError, match="bad.perm"):
            load_params(path)

    def test_oversized_ring_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text(f"N = {1 << 23}\nw = 32\nlen = 32\nn_seg = {1 << 18}\n"
                        "base = 7681\npermutation = reverse\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParamsError):
                load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_missing_permutation_file(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("N = 256\nw = 32\nlen = 32\nn_seg = 8\nbase = 7681\n"
                        "permutation = nowhere.perm\n")
        with pytest.raises(ParamsError, match="nowhere.perm"):
            load_params(path)

    def test_binary_file_is_a_params_error(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_bytes(b"N = 256\n\xff\xfe\x00\x80\n")
        with pytest.raises(ParamsError, match="not a text file"):
            load_params(path)

    def test_permutation_naming_a_directory(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("N = 256\nw = 32\nlen = 32\nn_seg = 8\nbase = 7681\n"
                        "permutation = .\n")
        with pytest.raises(ParamsError, match="not found"):
            load_params(path)


# ---------------------------------------------------------------- fuzzing

@functools.cache
def _desk(layout: str) -> GenParams:
    layouts = {"identity": None, "reverse": Permutation.reverse(256),
               "explicit": Permutation(np.random.default_rng(4).permutation(256))}
    return GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681, 10753),
                     layout=layouts[layout])


@functools.cache
def _desk_files(layout: str) -> tuple[str, bytes]:
    """The desk profile's params file text and MRP container bytes."""
    params = _desk(layout)
    with tempfile.TemporaryDirectory() as tmp:
        save_params(params, Path(tmp) / "desk.params")
        write_mrp(Path(tmp) / "desk.mrp", generate_mrp(Seed(bytes(36)), params), params)
        return (Path(tmp) / "desk.params").read_text(), (Path(tmp) / "desk.mrp").read_bytes()


def _returns_or_raises_typed(call, path: Path) -> None:
    """call(path) returns or raises MrpgenError, within 1 MiB of the file size."""
    size = path.stat().st_size
    tracemalloc.start()
    try:
        try:
            call(path)
        except MrpgenError:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size + (1 << 20)


@st.composite
def _container_mutations(draw):
    """A desk container with header-biased byte flips, a truncation or an extension."""
    layout = draw(st.sampled_from(["identity", "reverse", "explicit"]))
    blob = bytearray(_desk_files(layout)[1])
    kind = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.one_of(st.integers(0, 47), st.integers(0, len(blob) - 1)))
            blob[at] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    else:
        blob += draw(st.binary(min_size=1, max_size=64))
    return bytes(blob)


@st.composite
def _params_mutations(draw):
    """A desk params file with lines deleted or duplicated and tokens swapped."""
    layout = draw(st.sampled_from(["identity", "reverse", "explicit"]))
    lines = [line.split() for line in _desk_files(layout)[0].splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        op = draw(st.sampled_from(["delete", "duplicate", "swap"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
        else:
            j = draw(st.integers(0, len(lines) - 1))
            a = draw(st.integers(0, len(lines[i]) - 1))
            b = draw(st.integers(0, len(lines[j]) - 1))
            lines[i][a], lines[j][b] = lines[j][b], lines[i][a]
    return layout, "".join(" ".join(tokens) + "\n" for tokens in lines)


class TestInputBoundaryFuzz:
    @settings(deadline=None, max_examples=200)
    @given(_container_mutations())
    def test_read_mrp_returns_or_raises_typed(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.mrp"
            path.write_bytes(blob)
            _returns_or_raises_typed(read_mrp, path)

    @settings(deadline=None, max_examples=200)
    @given(_params_mutations())
    def test_load_params_returns_or_raises_typed(self, case):
        layout, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "desk.params"
            save_params(_desk(layout), path)  # leaves desk.params.perm for "explicit"
            path.write_text(text)
            _returns_or_raises_typed(load_params, path)
