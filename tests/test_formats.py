import errno
import functools
import os
import stat
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mrp_header, ntt_primes
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

    def test_rejects_truncation(self, stored_mrp):
        path, _, _ = stored_mrp
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 7])
        with pytest.raises(FormatError):
            read_mrp(path)

    def test_rejects_trailing_garbage(self, stored_mrp):
        path, _, _ = stored_mrp
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_mrp(path)

    def test_rejects_zero_segment_count(self, tmp_path):
        path = tmp_path / "zero.mrp"
        path.write_bytes(mrp_header(256, 0) + bytes(4 * 256))
        with pytest.raises(FormatError, match="seg_len"):
            read_mrp(path)

    @pytest.mark.parametrize("perm_kind", [0, 1])
    def test_rejects_oversized_ring_before_allocating(self, tmp_path, perm_kind):
        # N = 2^23 exceeds 42 words x 2^16 segments; N = 2^21 is a valid
        # profile whose limbs are missing.  Neither header alone may make the
        # reader build an N-sized layout.
        for n_ring, base in ((1 << 23, (7681,)), (1 << 21, (104857601,))):
            path = tmp_path / "huge.mrp"
            path.write_bytes(mrp_header(n_ring, 1 << 16, base=base, perm_kind=perm_kind))
            tracemalloc.start()
            try:
                with pytest.raises(FormatError):
                    read_mrp(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, n_ring

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
        }

    @pytest.mark.parametrize("writer", ["write_mrp", "gen-limb"])
    def test_a_failed_body_write_keeps_the_old_file(self, stored_mrp, monkeypatch, capsys,
                                                     writer):
        path, mrp, params = stored_mrp
        write = self._writers(path.parent, mrp, params)[writer]
        old, real_open = path.read_bytes(), open

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
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(formats, "open", DiskFull, raising=False)
        if writer == "write_mrp":
            with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
                write(path)
        else:
            assert write(path) == 2
            assert "code=io-error" in capsys.readouterr().err
        assert path.read_bytes() == old
        assert sorted(p.name for p in path.parent.iterdir()) == ["desk.params", path.name]

    @pytest.mark.parametrize("writer", ["write_mrp", "gen-limb"])
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


class TestParamsFile:
    def test_round_trip(self, tmp_path, desk_params):
        path = tmp_path / "profile.params"
        save_params(desk_params, path)
        loaded = load_params(path)
        assert loaded == desk_params

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
