from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_keccak
from mrpgen import (ParamsError, Seed, derive_polynomial_seed,
                    encode_domain_input, encode_domain_inputs, split_words, xof_expand,
                    xof_expand_many)
from mrpgen import keccak
from mrpgen.profiles import DEFAULT_R_BITS
from mrpgen.xof import INPUT_BYTES, MAX_INPUT_BYTES


class TestSeed:
    def test_round_trip_hex(self):
        seed = Seed(bytes(range(36)))
        assert Seed.from_hex(seed.hex()) == seed
        assert len(seed.hex()) == 72

    def test_rejects_wrong_length(self):
        with pytest.raises(ParamsError):
            Seed(bytes(35))
        with pytest.raises(ParamsError):
            Seed.from_hex("ab" * 35)

    def test_derive_polynomial_seed(self):
        common = bytes(32)
        assert derive_polynomial_seed(common, 0) == Seed(bytes(36))
        assert derive_polynomial_seed(common, 1) != derive_polynomial_seed(common, 2)
        # one key's worth of polynomials: all distinct
        seeds = {derive_polynomial_seed(common, i).data for i in range(5)}
        assert len(seeds) == 5

    def test_derive_rejects_bad_inputs(self):
        with pytest.raises(ParamsError):
            derive_polynomial_seed(bytes(31), 0)
        with pytest.raises(ParamsError):
            derive_polynomial_seed(bytes(32), 1 << 32)


class TestEncodeDomainInput:
    def test_layout(self, zero_seed):
        enc = encode_domain_input(zero_seed, 1, 0)
        assert enc == bytes(36) + bytes([1, 0, 0, 0]) + bytes([0, 0])
        assert len(enc) == INPUT_BYTES

    def test_little_endian_fields(self, zero_seed):
        enc = encode_domain_input(zero_seed, 786433, 5)
        assert enc[36:40] == bytes([0x01, 0x00, 0x0C, 0x00])
        assert enc[40:42] == bytes([0x05, 0x00])

    def test_injective_over_domain_pairs(self, zero_seed):
        seen = {encode_domain_input(zero_seed, q, i)
                for q in (3, 17, 786433) for i in range(16)}
        assert len(seen) == 3 * 16

    def test_rejects_out_of_range(self, zero_seed):
        with pytest.raises(ParamsError):
            encode_domain_input(zero_seed, 0, 0)
        with pytest.raises(ParamsError):
            encode_domain_input(zero_seed, 1 << 32, 0)
        with pytest.raises(ParamsError):
            encode_domain_input(zero_seed, 3, 1 << 16)


class TestEncodeDomainInputs:
    @settings(deadline=None, max_examples=25)
    @given(st.binary(min_size=36, max_size=36), st.integers(1, 2 ** 32 - 1),
           st.integers(0, 2 ** 16))
    @example(bytes(36), 2 ** 32 - 1, 2 ** 16)
    def test_row_i_is_the_encoding_of_segment_i(self, seed_bytes, q, count):
        seed = Seed(seed_bytes)
        rows = encode_domain_inputs(seed, q, count)
        assert rows.shape == (count, INPUT_BYTES) and rows.dtype == np.uint8
        assert rows.tobytes() == b"".join(encode_domain_input(seed, q, i)
                                          for i in range(count))

    @pytest.mark.parametrize("q, count", [(0, 1), (1 << 32, 1), (3, (1 << 16) + 1), (3, -1)])
    def test_rejects_out_of_range(self, zero_seed, q, count):
        with pytest.raises(ParamsError):
            encode_domain_inputs(zero_seed, q, count)


class TestXofExpand:
    def test_matches_golden_vectors(self, golden_xof_vectors):
        for data, expected in golden_xof_vectors:
            assert xof_expand(data) == expected

    def test_deterministic(self):
        data = encode_domain_input(Seed(bytes(range(36))), 97, 9)
        assert xof_expand(data) == xof_expand(data)

    def test_one_bit_flip_changes_block(self, zero_seed):
        a = bytearray(encode_domain_input(zero_seed, 97, 9))
        b = bytearray(a)
        b[0] ^= 1
        assert xof_expand(bytes(a)) != xof_expand(bytes(b))

    def test_thread_consistency(self, zero_seed):
        data = encode_domain_input(zero_seed, 7681, 2)
        with ThreadPoolExecutor(max_workers=8) as pool:
            blocks = list(pool.map(lambda _: xof_expand(data), range(32)))
        assert all(b == blocks[0] for b in blocks)

    def test_block_length(self):
        assert len(xof_expand(b"")) == DEFAULT_R_BITS // 8

    def test_rejects_oversized_r(self):
        for backend in ("shake128", "kangarootwelve"):
            with pytest.raises(ParamsError, match="up to 1344"):
                xof_expand(b"", 2688, backend)

    def test_rejects_non_byte_r(self):
        for r_bits in (1343, 0, -8):
            with pytest.raises(ParamsError, match="multiple of 8"):
                xof_expand(b"", r_bits)

    def test_rejects_long_input(self):
        with pytest.raises(ParamsError):
            xof_expand(bytes(MAX_INPUT_BYTES + 1))

    def test_rejects_unknown_backend(self):
        with pytest.raises(ParamsError):
            xof_expand(b"", backend="blake2")

    def test_agrees_with_independent_reference(self):
        for data in (b"", b"\x01", bytes(range(42))):
            assert xof_expand(data) == reference_keccak.shake128(data, 168)


class TestXofExpandMany:
    @pytest.mark.parametrize("backend", ["shake128", "kangarootwelve"])
    @pytest.mark.parametrize("r_bits", [1344, 256, 8])
    def test_is_the_concatenation_of_single_blocks(self, backend, r_bits):
        # every row gets one whole block; xof_expand(row, r_bits) is its prefix
        inputs = encode_domain_inputs(Seed(bytes(range(36))), 7681, 5)
        blocks = xof_expand_many(inputs, backend)
        assert blocks == b"".join(xof_expand(bytes(row), DEFAULT_R_BITS, backend)
                                  for row in inputs)
        for i, row in enumerate(inputs):
            one = xof_expand_many(row.reshape(1, -1), backend)
            assert one == blocks[168 * i:168 * (i + 1)]
            assert xof_expand(bytes(row), r_bits, backend) == one[:r_bits // 8]

    @pytest.mark.parametrize("backend", ["shake128", "kangarootwelve"])
    @pytest.mark.parametrize("out_len", [1, 44, 167, 168])
    def test_a_shorter_squeeze_is_each_blocks_prefix(self, backend, out_len):
        inputs = encode_domain_inputs(Seed(bytes(range(36))), 7681, 5)
        blocks = xof_expand_many(inputs, backend)
        assert xof_expand_many(inputs, backend, out_len=out_len) == b"".join(
            blocks[168 * i:168 * i + out_len] for i in range(5))

    @pytest.mark.parametrize("backend", ["shake128", "kangarootwelve"])
    @pytest.mark.parametrize("out_len", [0, -1, 169, 1.5, None])
    def test_rejects_an_output_length_outside_the_block(self, backend, out_len):
        with pytest.raises(ParamsError, match="output length"):
            xof_expand_many(np.zeros((1, 42), np.uint8), backend, out_len=out_len)

    @pytest.mark.parametrize("backend", ["shake128", "kangarootwelve"])
    def test_empty_batch(self, backend):
        for out_len in (168, 12):
            assert xof_expand_many(np.empty((0, INPUT_BYTES), np.uint8), backend=backend,
                                   out_len=out_len) == b""

    @pytest.mark.parametrize("backend", ["shake128", "kangarootwelve"])
    def test_empty_inputs(self, backend):
        for out_len in (168, 12):
            assert xof_expand_many(np.empty((3, 0), np.uint8), backend=backend,
                                   out_len=out_len) == (
                xof_expand(b"", out_len * 8, backend=backend) * 3)

    def test_rejects_one_long_input_in_a_batch(self):
        with pytest.raises(ParamsError, match="longer than"):
            xof_expand_many(np.zeros((3, MAX_INPUT_BYTES + 1), np.uint8))

    @pytest.mark.parametrize("inputs", [
        np.zeros(INPUT_BYTES, np.uint8),
        np.zeros((3, INPUT_BYTES // 2), np.uint16),
        np.zeros((1, 2, INPUT_BYTES), np.uint8),
        [bytes(INPUT_BYTES)] * 3,
    ], ids=["1-D", "uint16", "3-D", "list"])
    @pytest.mark.parametrize("backend", ["shake128", "kangarootwelve"])
    def test_rejects_anything_but_a_uint8_matrix(self, inputs, backend):
        with pytest.raises(ParamsError, match="2-D uint8 matrix"):
            xof_expand_many(inputs, backend=backend)

    def test_rejects_bad_block_size_and_backend(self):
        # a row's output is a prefix of its one block, sized only by out_len
        with pytest.raises(TypeError):
            xof_expand_many(np.zeros((1, 42), np.uint8), r_bits=1344)
        with pytest.raises(TypeError):
            xof_expand_many(np.zeros((1, 42), np.uint8), 1344, "shake128")
        with pytest.raises(ParamsError):
            xof_expand_many(np.zeros((1, 42), np.uint8), backend="blake2")

    def test_kangarootwelve_batch_needs_equal_lengths(self):
        # only a matrix is a batch, so a ragged batch cannot be written
        with pytest.raises(ParamsError, match="2-D uint8 matrix"):
            xof_expand_many([bytes(42), bytes(41)], backend="kangarootwelve")

    def test_kangarootwelve_agrees_with_independent_reference(self):
        inputs = [b"", b"\x01", bytes(range(42)), bytes(range(64))]
        for data in inputs:
            assert (xof_expand(data, backend="kangarootwelve")
                    == reference_keccak.kangaroo_twelve(data, b"", 168))


class TestSplitWords:
    def test_little_endian_words(self):
        block = bytes([1, 0, 0, 0, 2, 0, 0, 0])
        assert list(split_words(block, 32)) == [1, 2]

    def test_default_block_yields_42_words(self):
        assert len(split_words(bytes(168), 32)) == 42

    def test_all_zero(self):
        assert list(split_words(bytes(168), 32)) == [0] * 42

    def test_word_sizes(self):
        block = bytes([0xAB, 0xCD, 0x01, 0x02])
        assert list(split_words(block, 8)) == [0xAB, 0xCD, 0x01, 0x02]
        assert list(split_words(block, 16)) == [0xCDAB, 0x0201]
        assert list(split_words(block, 32)) == [0x0201CDAB]

    def test_rejects_unsupported_width(self):
        with pytest.raises(ParamsError):
            split_words(bytes(168), 12)

    @given(st.binary(min_size=4, max_size=168))
    def test_words_reassemble_block_prefix(self, block):
        words = split_words(block, 32)
        t = len(block) // 4
        rebuilt = b"".join(int(wv).to_bytes(4, "little") for wv in words)
        assert rebuilt == block[:4 * t]


class TestKangarooTwelveBackend:
    def test_selectable_and_deterministic(self):
        a = xof_expand(b"abc", backend="kangarootwelve")
        assert a == xof_expand(b"abc", backend="kangarootwelve")
        assert len(a) == DEFAULT_R_BITS // 8

    def test_differs_from_shake(self):
        data = bytes(42)
        assert xof_expand(data, backend="kangarootwelve") != xof_expand(data)

    def test_empty_input_kat(self):
        assert keccak.kangaroo_twelve(b"", b"", 32).hex() == (
            "1ac2d450fc3b4205d19da7bfca1b37513c0803577ac7167f06fe2ce1f0ef39e5")

    def test_turbo_shake128_kat(self):
        # RFC 9861: TurboSHAKE128(M = empty, D = 0x1F, 32 bytes)
        assert keccak.turbo_shake128(b"", 0x1F, 32).hex() == (
            "1e415f1c5983aff2169217277d17bb538cd945a397ddec541f1ce41af2c1b74c")

    def test_empty_kangaroo_twelve_is_turbo_shake128_of_its_length_encoding(self):
        # no message and no customization leave S = length_encode(0) = 00
        assert keccak.turbo_shake128(b"\x00", 0x07, 32) == keccak.kangaroo_twelve(b"", b"", 32)

    def test_customization_separates(self):
        assert keccak.kangaroo_twelve(b"m", b"", 32) != keccak.kangaroo_twelve(b"m", b"c", 32)

    def test_turbo_shake128_matches_the_reference_sponge(self):
        # at 167 bytes the suffix and the final 0x80 share the block's last byte
        for data in (b"", b"a", bytes(range(166)), b"x" * 167):
            assert (keccak.turbo_shake128(data, 0x1F, 168)
                    == reference_keccak.sponge(data, 0x1F, 168, 12))

    def test_rejects_multi_chunk(self):
        with pytest.raises(ParamsError):
            keccak.kangaroo_twelve(bytes(9000), b"", 32)

    def test_rejects_bad_domain_byte(self):
        with pytest.raises(ParamsError):
            keccak.turbo_shake128(b"", 0x80, 32)

    def test_batch_is_the_concatenation_of_single_messages(self):
        messages = np.repeat(np.arange(6, dtype=np.uint8)[:, None], 50, axis=1)
        assert keccak.kangaroo_twelve(messages, b"c", 168) == b"".join(
            keccak.kangaroo_twelve(bytes(m), b"c", 168) for m in messages)
        one_row = np.frombuffer(b"m", np.uint8).reshape(1, 1)
        assert keccak.kangaroo_twelve(one_row, b"", 32) == keccak.kangaroo_twelve(b"m", b"", 32)

    def test_one_block_is_the_bound(self):
        # 167 padded bytes fill the rate block and 168 are squeezed; one more
        # byte in or out raises.  KangarooTwelve pads 159 message bytes with
        # "custom" and its 2-byte length encoding.
        cases = [(lambda size, out: keccak.turbo_shake128(bytes(size), 0x1F, out),
                  reference_keccak.sponge(bytes(167), 0x1F, 168, 12)),
                 (lambda size, out: keccak.kangaroo_twelve(bytes(size - 8), b"custom", out),
                  reference_keccak.kangaroo_twelve(bytes(159), b"custom", 168))]
        for call, full in cases:
            assert call(167, 168) == full
            for size, out in ((168, 168), (167, 169)):
                with pytest.raises(ParamsError, match="one sponge block"):
                    call(size, out)

    @pytest.mark.parametrize("batch", [[b"m"], np.zeros(4, np.uint8),
                                       np.zeros((2, 2), np.int8)],
                             ids=["list", "1-D", "int8"])
    def test_rejects_a_batch_that_is_not_a_uint8_matrix(self, batch):
        with pytest.raises(ParamsError, match="2-D uint8 matrix"):
            keccak.kangaroo_twelve(batch, b"", 32)


def _reference_permute(lanes, rounds):
    state = {(x, y): int(lanes[x + 5 * y]) for x in range(5) for y in range(5)}
    state = reference_keccak.keccak_f1600(state, rounds)
    return [state[(i % 5, i // 5)] for i in range(25)]


def _assert_reference_permutation(lanes, rounds):
    kept = lanes.copy()
    out = keccak.keccak_p(lanes, rounds)
    assert out.shape == lanes.shape and out.dtype == np.uint64
    for before, after in zip(kept.reshape(25, -1).T, out.reshape(25, -1).T):
        assert after.tolist() == _reference_permute(before, rounds)
    assert np.array_equal(lanes, kept)  # input unchanged


class TestKeccakP:
    def test_keccak_f1600_of_the_zero_state(self):
        # the Keccak team's known answer; 24 rounds use every round constant
        out = keccak.keccak_p([0] * 25, 24)
        assert int(out[0]) == 0xF1258F7940E1DDE7
        assert out.tolist() == _reference_permute([0] * 25, 24)

    # at the real tile width, with no patching: one state, one short of a
    # tile, one tile, one past it and two tiles and a partial third.  State b
    # is pool[b % 67], so the reference permutes only the pool, and as 67
    # does not divide the tile width, each tile starts at another pool state.
    @pytest.mark.parametrize("rounds", [12, 24])
    def test_fixed_batches_across_tiles_equal_reference_per_state(self, rounds):
        pool = np.random.default_rng(2026).integers(0, 2 ** 64, size=(67, 25),
                                                    dtype=np.uint64)
        expected = np.array([_reference_permute(state, rounds) for state in pool],
                            dtype=np.uint64)
        tile = keccak._TILE
        for width in (1, tile - 1, tile, tile + 1, 2 * tile + 3):
            index = np.arange(width) % len(pool)
            out = keccak.keccak_p(pool[index].T, rounds)
            wrong = np.flatnonzero((out != expected[index].T).any(axis=0))
            assert wrong.size == 0, f"width {width}: states {wrong[:8].tolist()} differ"

    @settings(deadline=None, max_examples=20)
    @given(st.sampled_from([12, 24]), st.sampled_from([1, 2, 7, 64]), st.data())
    def test_batch_equals_reference_per_state(self, rounds, count, data):
        states = data.draw(st.lists(st.lists(st.integers(0, 2 ** 64 - 1), min_size=25,
                                             max_size=25),
                                    min_size=count, max_size=count))
        lanes = np.array(states, dtype=np.uint64).T
        out = keccak.keccak_p(lanes, rounds)
        assert out.shape == (25, count) and out.dtype == np.uint64
        for b, state in enumerate(states):
            assert out[:, b].tolist() == _reference_permute(state, rounds)
        assert np.array_equal(lanes, np.array(states, dtype=np.uint64).T)  # input unchanged

    def test_list_of_25_ints_is_one_state(self):
        lanes = [(0x0123456789ABCDEF * (i + 1)) % 2 ** 64 for i in range(25)]
        kept = list(lanes)
        out = keccak.keccak_p(lanes, 12)
        assert [int(v) for v in out] == _reference_permute(lanes, 12)
        assert lanes == kept

    def test_batch_axes_after_the_lanes_are_kept(self):
        lanes = np.arange(25 * 6, dtype=np.uint64).reshape(25, 2, 3)
        out = keccak.keccak_p(lanes, 12)
        assert out.shape == (25, 2, 3)
        assert np.array_equal(out.reshape(25, 6), keccak.keccak_p(lanes.reshape(25, 6), 12))

    def test_tiles_match_one_pass(self, monkeypatch):
        lanes = np.random.default_rng(5).integers(0, 2 ** 63, size=(25, 37), dtype=np.uint64)
        whole = keccak.keccak_p(lanes, 12)
        monkeypatch.setattr(keccak, "_TILE", 8)
        assert np.array_equal(keccak.keccak_p(lanes, 12), whole)

    # the rounds work on a C-ordered copy of each tile, so every memory order
    # of the input gives the reference permutation and leaves the input alone
    @pytest.mark.parametrize("layout", ["c-contiguous", "absorb-view", "batch-axes"])
    def test_every_input_layout_equals_reference_per_state(self, layout):
        rng = np.random.default_rng(18)
        if layout == "absorb-view":
            # the transposed (count, 25) view of padded blocks that the sponge passes
            lanes = rng.integers(0, 256, size=(5, 200), dtype=np.uint8).view("<u8").T
        else:
            lanes = rng.integers(0, 2 ** 64, size=(25, 6), dtype=np.uint64)
            if layout == "batch-axes":
                lanes = lanes.reshape(25, 2, 3)
        assert lanes.flags.c_contiguous == (layout != "absorb-view")
        _assert_reference_permutation(lanes, 12)

    @pytest.mark.parametrize("rounds", [12, 24])
    @pytest.mark.parametrize("count", [7, 8, 9, 17])
    def test_every_tile_equals_reference_per_state(self, monkeypatch, rounds, count):
        monkeypatch.setattr(keccak, "_TILE", 8)
        states = np.random.default_rng(count).integers(0, 2 ** 64, size=(count, 25),
                                                       dtype=np.uint64)
        _assert_reference_permutation(states.T, rounds)

    def test_rejects_a_state_without_25_lanes(self):
        with pytest.raises(ParamsError):
            keccak.keccak_p([0] * 24, 12)

    # Keccak-p[1600, n] is the last n of 24 rounds: 25 would silently run one
    @pytest.mark.parametrize("rounds", [-1, 25, 12.0])
    def test_rejects_a_round_count_it_cannot_run(self, rounds):
        with pytest.raises(ParamsError, match="0..24 rounds"):
            keccak.keccak_p([0] * 25, rounds)
