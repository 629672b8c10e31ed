import ast
import contextlib
import errno
import functools
import hashlib
import inspect
import itertools
import math
import os
import random
import select
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mrpgen import (GenerationFailure, GenParams, MultiResiduePolynomial, ParamsError,
                    Permutation, RetryExhausted, Seed, client_generate_with_retry,
                    compute_threshold, generate_limb, generate_mrp,
                    generate_segment, is_ntt_friendly, permute,
                    sample_rejection_prob, seed_source_from_rng, split_words,
                    verify_mrp_file, xof_expand)
from mrpgen import formats, keccak, primes, profiles, read_mrp, sampling, write_mrp, xof
from mrpgen.analytics import seg_failure_prob
from mrpgen.xof import encode_domain_input

import oracles
from conftest import ntt_primes
from schedules import (assemble_segments, caller_waits_for_helper, dying_helper, forking,
                       splitting, within)


class TestComputeThreshold:
    def test_q3(self):
        assert compute_threshold(3, 32) == 2 ** 32 - 1

    def test_large_q_single_copy(self):
        q = 2 ** 31 + 11  # any q in (2^31, 2^32) admits exactly one copy
        assert compute_threshold(q, 32) == q

    def test_exact_value(self):
        assert compute_threshold(786433, 32) == (2 ** 32 // 786433) * 786433

    def test_acceptance_region_holds_full_copies(self):
        for q in (3, 97, 786433):
            thresh = compute_threshold(q, 32)
            copies = 2 ** 32 // q
            assert thresh == copies * q

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamsError):
            compute_threshold(1, 32)
        with pytest.raises(ParamsError):
            compute_threshold(1 << 32, 32)

    @pytest.mark.parametrize("q", [2, 4])
    def test_power_of_two_modulus_accepts_every_word(self, q):
        # q divides 2^w, so every 8-bit word lies below the threshold
        assert compute_threshold(q, 8) == 256


def _golden_profile(golden) -> GenParams:
    """The 256-coefficient ring the golden segments were cut from."""
    return GenParams(N=256, w=golden["w"], seg_len=golden["len"], n_seg=8,
                     base=(golden["q"],), backend=golden["backend"])


class TestGenSeg:
    def test_matches_golden_fixture(self, golden_segment):
        seg = generate_segment(golden_segment["seed"], golden_segment["q"],
                               golden_segment["id_seg"], _golden_profile(golden_segment))
        assert list(seg.values) == golden_segment["values"]

    def test_matches_kangarootwelve_golden_fixture(self, golden_k12_segment):
        golden = golden_k12_segment
        seg = generate_segment(golden["seed"], golden["q"], golden["id_seg"],
                               _golden_profile(golden))
        assert list(seg.values) == golden["values"]

    def test_all_values_below_threshold(self, desk_params, zero_seed):
        q = desk_params.base[1]
        seg = generate_segment(zero_seed, q, 0, desk_params)
        thresh = compute_threshold(q, 32)
        assert len(seg.values) == desk_params.seg_len
        assert all(int(v) < thresh for v in seg.values)

    def test_scan_order_is_block_order(self, zero_seed):
        # q just above 2^31 rejects about half the words, so the segment must
        # be the block's accepted words in block order, cut at seg_len
        q = ntt_primes(256, 1, q_min=2 ** 31, q_max=2 ** 32)[0]
        params = GenParams(N=256, w=32, seg_len=16, n_seg=16, base=(q,))
        words = split_words(xof_expand(encode_domain_input(zero_seed, q, 5)), 32)
        accepted = [int(wv) for wv in words if wv < compute_threshold(q, 32)]
        assert len(accepted) < len(words)
        seg = generate_segment(zero_seed, q, 5, params)
        assert list(seg.values) == accepted[:16]

    def test_short_segment_is_a_value(self, zero_seed):
        # q barely above 2^31 rejects roughly half of all words, so 32
        # acceptances out of 42 candidates is a > 3-sigma event
        q = ntt_primes(64, 1, q_min=2 ** 31, q_max=2 ** 32)[0]
        params = GenParams(N=64, w=32, seg_len=32, n_seg=2, base=(q,))
        seg = generate_segment(zero_seed, q, 0, params)
        assert len(seg.values) < 32


class TestGenerateSegment:
    def test_deterministic(self, desk_params, zero_seed):
        a = generate_segment(zero_seed, 7681, 3, desk_params)
        b = generate_segment(zero_seed, 7681, 3, desk_params)
        assert np.array_equal(a.values, b.values)

    def test_distinct_ids_have_independent_blocks(self, desk_params, zero_seed):
        a = generate_segment(zero_seed, 7681, 0, desk_params)
        b = generate_segment(zero_seed, 7681, 1, desk_params)
        assert not np.array_equal(a.values, b.values)

    def test_id_range_enforced(self, desk_params, zero_seed):
        with pytest.raises(ParamsError):
            generate_segment(zero_seed, 7681, desk_params.n_seg, desk_params)

    def test_requires_base_membership(self, desk_params, zero_seed):
        with pytest.raises(ParamsError, match="q=97"):
            generate_segment(zero_seed, 97, 0, desk_params)

    def test_locality_ignores_base_composition(self, zero_seed):
        primes = ntt_primes(256, 4)
        a = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=tuple(primes[:2]))
        b = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=tuple(reversed(primes)))
        q = primes[0]
        for id_seg in range(4):
            sa = generate_segment(zero_seed, q, id_seg, a)
            sb = generate_segment(zero_seed, q, id_seg, b)
            assert np.array_equal(sa.values, sb.values)


class TestPermutation:
    def test_identity(self):
        coeffs = np.arange(10, 20, dtype=np.uint32)
        assert np.array_equal(permute(coeffs, Permutation.identity(10)), coeffs)

    def test_reversal(self):
        coeffs = np.array([5, 6, 7, 8], dtype=np.uint32)
        assert list(permute(coeffs, Permutation.reverse(4))) == [8, 7, 6, 5]

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        mapping = rng.permutation(64)
        p = Permutation(mapping)
        coeffs = rng.integers(0, 2 ** 32, 64, dtype=np.uint64).astype(np.uint32)
        assert np.array_equal(permute(permute(coeffs, p), Permutation(np.argsort(mapping))),
                              coeffs)

    def test_rejects_non_bijection(self):
        with pytest.raises(ParamsError):
            Permutation([0, 0, 2])

    @pytest.mark.parametrize("mapping", [[2 ** 64], [1, 2 ** 63], [-2 ** 63 - 1, 0]])
    def test_an_index_beyond_int64_is_a_params_error(self, mapping):
        with pytest.raises(ParamsError, match="not a bijection"):
            Permutation(mapping)

    def test_identity_returns_the_coefficients_uncopied(self):
        coeffs = np.arange(10, 20, dtype=np.uint32)
        assert permute(coeffs, Permutation.identity(10)) is coeffs

    @pytest.mark.parametrize("mapping", [[0.9, 1.7, 2.2], ["0", "1"], [True, False]],
                             ids=["floats", "strings", "booleans"])
    def test_refuses_indices_that_are_not_integers(self, mapping):
        # each of these casts to a bijection on 0..N-1
        with pytest.raises(ParamsError, match="must be integers"):
            Permutation(mapping)

    def test_the_kind_is_the_mappings_own(self):
        ramp = np.arange(8)
        assert Permutation(ramp).kind == "identity"
        assert Permutation(list(ramp[::-1])).kind == "reverse"
        assert Permutation([1, 0, *range(2, 8)]).kind == "explicit"
        coeffs = np.arange(10, 18, dtype=np.uint32)
        assert permute(coeffs, Permutation(ramp)) is coeffs

    @pytest.mark.parametrize("make", [
        Permutation.identity, Permutation.reverse,
        lambda n: Permutation(np.arange(n)), lambda n: Permutation(np.arange(n)[::-1]),
    ], ids=["identity", "reverse", "explicit-identity", "explicit-reverse"])
    def test_inverse_keeps_an_involution_kind(self, tmp_path, zero_seed, make):
        p = make(256)
        assert np.array_equal(p.mapping[p.mapping], np.arange(256))
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,), layout=p)
        path = tmp_path / "layout.mrp"
        write_mrp(path, generate_mrp(zero_seed, params), params)
        # magic and seven fields, one modulus, the kind, one limb: no mapping words
        assert path.stat().st_size == 4 * (8 + 1 + 1 + 256)
        assert read_mrp(path)[1].layout.kind == p.kind

    def test_identity_limb_is_the_concatenated_segments(self, zero_seed):
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,))
        segments = [generate_segment(zero_seed, 7681, i, params).values for i in range(8)]
        limb = generate_limb(zero_seed, 7681, params)
        assert limb.coeffs.flags.writeable
        assert np.array_equal(limb.coeffs, np.concatenate(segments))

    def test_length_mismatch(self):
        with pytest.raises(ParamsError):
            permute(np.arange(5), Permutation.identity(4))


class TestGenParamsValidation:
    @pytest.mark.parametrize("n_ring", [0, 3, 96])
    def test_ring_dimension_must_be_a_power_of_two(self, n_ring):
        with pytest.raises(ParamsError, match="N must be a power of two"):
            GenParams(N=n_ring, w=32, seg_len=32, n_seg=8, base=(7681,))

    def test_product_must_match(self):
        with pytest.raises(ParamsError):
            GenParams(N=256, w=32, seg_len=32, n_seg=4, base=(7681,))

    def test_seg_len_must_fit_block(self):
        with pytest.raises(ParamsError):
            GenParams(N=4096, w=32, seg_len=64, n_seg=64, base=(7681,))

    def test_base_must_be_ntt_friendly(self):
        with pytest.raises(ParamsError):
            GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7687,))

    def test_base_must_be_distinct(self):
        with pytest.raises(ParamsError):
            GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681, 7681))

    def test_backend_known(self):
        with pytest.raises(ParamsError):
            GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,), backend="md5")

    def test_layout_length(self):
        with pytest.raises(ParamsError):
            GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,),
                      layout=Permutation.identity(128))

    def test_n_seg_is_a_16_bit_segment_id(self):
        # 786433 = 3 * 2^18 + 1 is transform-friendly for both rings
        top = GenParams(N=1 << 16, w=32, seg_len=1, n_seg=1 << 16, base=(786433,))
        assert top.n_seg == 1 << 16
        with pytest.raises(ParamsError, match="16-bit segment ids"):
            GenParams(N=1 << 17, w=32, seg_len=1, n_seg=1 << 17, base=(786433,))

    def test_t_property(self, desk_params):
        assert desk_params.t == 42

    def test_r_is_the_one_block_and_not_a_field(self, desk_params):
        assert GenParams.r == desk_params.r == 1344
        with pytest.raises(TypeError):
            GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681,), r=1344)
        with pytest.raises(TypeError):
            replace(desk_params, r=1024)


class TestGenerateLimb:
    def test_single_segment_identity(self, zero_seed):
        q = ntt_primes(32, 1)[0]
        params = GenParams(N=32, w=32, seg_len=32, n_seg=1, base=(q,))
        limb = generate_limb(zero_seed, q, params)
        seg = generate_segment(zero_seed, q, 0, params)
        assert np.array_equal(limb.coeffs, seg.values)

    def test_permutation_semantics(self, zero_seed):
        q = ntt_primes(256, 1)[0]
        ident = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(q,))
        rev = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(q,),
                        layout=Permutation.reverse(256))
        a = generate_limb(zero_seed, q, ident).coeffs
        b = generate_limb(zero_seed, q, rev).coeffs
        assert np.array_equal(b, a[::-1])
        assert sorted(a.tolist()) == sorted(b.tolist())

    def test_requires_base_membership(self, desk_params, zero_seed):
        with pytest.raises(ParamsError, match="q=97"):
            generate_limb(zero_seed, 97, desk_params)

    def test_kangarootwelve_limb_permutes_once(self, monkeypatch, zero_seed):
        q = ntt_primes(512, 1, q_min=(1 << 32) - (1 << 24), q_max=1 << 32)[0]
        params = GenParams(N=512, w=32, seg_len=4, n_seg=128, base=(q,),
                           backend="kangarootwelve")
        batches = []
        permute_lanes = keccak.keccak_p

        def counting(lanes, rounds):
            batches.append(np.shape(lanes))
            return permute_lanes(lanes, rounds)

        monkeypatch.setattr(keccak, "keccak_p", counting)
        generate_limb(zero_seed, q, params)
        assert batches == [(25, params.n_seg)]

    def test_kangarootwelve_default_size_limb_matches_golden(self, golden_k12_limb):
        golden = golden_k12_limb
        q = golden["q"]
        params = GenParams(N=golden["N"], w=32, seg_len=golden["len"],
                           n_seg=golden["n_seg"], base=(q,), backend=golden["backend"])
        coeffs = generate_limb(golden["seed"], q, params).coeffs
        assert coeffs[:len(golden["head"])].tolist() == golden["head"]
        assert hashlib.sha256(coeffs.astype("<u4").tobytes()).hexdigest() == golden["sha256"]

    def test_encodes_no_per_segment_inputs(self, monkeypatch, golden_mrp, golden_k12_limb):
        # one encoder call per limb, over the whole range of its segment ids;
        # a limb split with the row helper encodes its own half here
        calls, encode = [], sampling.encode_domain_inputs

        def recorded(seed, q, ids):
            calls.append(ids)
            return encode(seed, q, ids)

        monkeypatch.setattr(sampling, "encode_domain_inputs", recorded)
        monkeypatch.setattr(sampling, "MIN_SPLIT_ROWS", 1 << 30)
        k12 = golden_k12_limb
        params = GenParams(N=k12["N"], w=32, seg_len=k12["len"], n_seg=k12["n_seg"],
                           base=(k12["q"],), backend=k12["backend"])
        coeffs = generate_limb(k12["seed"], k12["q"], params).coeffs
        assert hashlib.sha256(coeffs.astype("<u4").tobytes()).hexdigest() == k12["sha256"]
        assert calls == [range(k12["n_seg"])]
        calls.clear()
        golden = GenParams(N=golden_mrp["N"], w=32, seg_len=golden_mrp["len"],
                           n_seg=golden_mrp["n_seg"], base=golden_mrp["base"])
        for q, expected in golden_mrp["limbs"].items():
            assert generate_limb(golden_mrp["seed"], q, golden).coeffs.tolist() == expected
        assert calls == [range(golden_mrp["n_seg"])] * len(golden_mrp["limbs"])
        calls.clear()
        with splitting(monkeypatch):
            coeffs = generate_limb(k12["seed"], k12["q"], params).coeffs
        assert hashlib.sha256(coeffs.astype("<u4").tobytes()).hexdigest() == k12["sha256"]
        assert calls == [range(k12["n_seg"] // 2)]

    def test_failure_names_first_short_segment(self, zero_seed):
        q = ntt_primes(64, 1, q_min=2 ** 31, q_max=2 ** 32)[0]
        params = GenParams(N=64, w=32, seg_len=32, n_seg=2, base=(q,))
        with pytest.raises(GenerationFailure) as err:
            generate_limb(zero_seed, q, params)
        assert err.value.q == q
        assert 0 <= err.value.id_seg < 2

    def test_failure_is_deterministic(self, zero_seed):
        q = ntt_primes(64, 1, q_min=2 ** 31, q_max=2 ** 32)[0]
        params = GenParams(N=64, w=32, seg_len=32, n_seg=2, base=(q,))
        failures = []
        for _ in range(3):
            try:
                generate_limb(zero_seed, q, params)
                failures.append(None)
            except GenerationFailure as exc:
                failures.append((exc.q, exc.id_seg))
        assert failures[0] is not None and failures.count(failures[0]) == 3


def _counted_scans(monkeypatch) -> list[int]:
    """The word count k of every _scan generate_limb makes from now on."""
    ks, real = [], sampling._scan

    def scan(inputs, thresh, k, params):
        ks.append(k)
        return real(inputs, thresh, k, params)

    monkeypatch.setattr(sampling, "_scan", scan)
    return ks


class TestBlockPrefix:
    @pytest.fixture(scope="class")
    def catalog(self):
        return primes.enumerate_supported(primes.CatalogFilter(
            n_ring=profiles.DEFAULT_N, w=profiles.DEFAULT_W,
            hw_naf_max=profiles.DEFAULT_HW_NAF_MAX, p_r_max=Fraction(1, 2),
            q_min_exclusive=profiles.DEFAULT_Q_MIN_EXCLUSIVE))

    @pytest.mark.parametrize("p_r_max, seg_len",
                             [(row[0], row[3]) for row in profiles.REFERENCE_ROWS])
    def test_k_is_the_fewest_words_the_model_allows(self, catalog, p_r_max, seg_len):
        # n_seg * P[fewer than seg_len acceptances in k words] is below the
        # miss bound at k, in exact arithmetic, and not below it at k - 1
        n_seg, t = profiles.DEFAULT_N // seg_len, profiles.DEFAULT_T
        bound = Fraction(sampling.PREFIX_MISS)

        def meets(k):
            return n_seg * seg_failure_prob(rec.p_r, k, seg_len) < bound

        ks = []
        for rec in catalog.restrict(Fraction(p_r_max)):
            k = sampling._prefix_words(rec.q, profiles.DEFAULT_W, seg_len, n_seg)
            assert seg_len <= k <= t
            assert k == t or meets(k), rec.q
            assert k == seg_len or not meets(k - 1), rec.q
            ks.append(k)
        assert min(ks) < t  # the prefix is shorter than the block somewhere

    def test_fallback_over_whole_blocks_keeps_the_bits(self, monkeypatch, golden_mrp,
                                                        golden_k12_limb):
        # with k = seg_len nearly every limb has a short row in its prefix and
        # is made again over whole blocks
        monkeypatch.setattr(sampling, "_prefix_words", lambda q, w, seg_len, n_seg: seg_len)
        ks = _counted_scans(monkeypatch)
        k12 = golden_k12_limb
        params = GenParams(N=k12["N"], w=32, seg_len=k12["len"], n_seg=k12["n_seg"],
                           base=(k12["q"],), backend=k12["backend"])
        coeffs = generate_limb(k12["seed"], k12["q"], params).coeffs
        assert hashlib.sha256(coeffs.astype("<u4").tobytes()).hexdigest() == k12["sha256"]
        assert ks == [params.seg_len, params.t]
        params = GenParams(N=golden_mrp["N"], w=32, seg_len=golden_mrp["len"],
                           n_seg=golden_mrp["n_seg"], base=golden_mrp["base"])
        for q, expected in golden_mrp["limbs"].items():
            assert generate_limb(golden_mrp["seed"], q, params).coeffs.tolist() == expected
        ks.clear()
        for w, n_ring in ((32, 1024), (16, 256), (8, 32)):
            base = _moduli_pool(w, n_ring)
            params = GenParams(N=n_ring, w=w, seg_len=4, n_seg=n_ring // 4, base=base)
            for seed in (Seed(bytes(36)), Seed(bytes(range(36)))):
                expected = assemble_segments(seed, params, 1, random.Random(0))
                got = np.stack([generate_limb(seed, q, params).coeffs for q in base])
                assert np.array_equal(got, expected), (w, seed)
        redone = len(ks) - ks.count(4)
        assert 0 < redone < ks.count(4)

    def test_a_block_the_model_needs_whole_is_scanned_once(self, monkeypatch, zero_seed):
        # p_r near 1/2 at len 32: the model cannot stop before t, and a short
        # row is not scanned a second time
        q = _moduli_pool(32, 256)[0]
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(q,))
        assert sampling._prefix_words(q, 32, 32, 8) == params.t
        ks = _counted_scans(monkeypatch)
        expected = _outcome(lambda: assemble_segments(zero_seed, params, 1, random.Random(0)))
        assert _outcome(lambda: generate_limb(zero_seed, q, params).coeffs) == expected
        assert ks == [params.t]

    @pytest.mark.parametrize("prefix", ["model", "seg_len"])
    def test_a_short_row_is_the_first_short_segment(self, monkeypatch, prefix):
        # p_r near 1/5 at len 32 over 8 segments: about a quarter of the
        # segments are short, so the first short one varies with the seed
        q = ntt_primes(256, 1, q_min=(1 << 32) * 4 // 5, q_max=1 << 32)[0]
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(q,))
        if prefix == "seg_len":
            monkeypatch.setattr(sampling, "_prefix_words", lambda q, w, seg_len, n_seg: seg_len)
        named = []
        for i in range(16):
            seed = Seed(bytes([i]) * 36)
            segments = [generate_segment(seed, q, j, params).values for j in range(8)]
            short = [j for j, values in enumerate(segments) if len(values) < params.seg_len]
            if not short:
                assert np.array_equal(generate_limb(seed, q, params).coeffs,
                                      np.concatenate(segments))
                continue
            with pytest.raises(GenerationFailure) as err:
                generate_limb(seed, q, params)
            assert (err.value.q, err.value.id_seg) == (q, short[0])
            named.append(short[0])
        assert len(set(named)) > 1 and len(named) < 16


@functools.lru_cache(maxsize=None)
def _moduli_pool(w: int, n_ring: int) -> tuple[int, ...]:
    """Up to three NTT-friendly q just above 2^(w-1), where about half of all
    words are rejected, and up to three just below 2^w, where few are."""
    step = 2 * n_ring
    above = range((1 << (w - 1)) + 1, 1 << w, step)
    below = range((1 << w) - step + 1, 1 << (w - 1), -step)
    return tuple(sorted({q for scan in (above, below)
                         for q in itertools.islice(
                             (q for q in scan if is_ntt_friendly(q, n_ring)), 3)}))


@st.composite
def _short_prone_profiles(draw):
    w = draw(st.sampled_from([8, 16, 32]))
    backend = draw(st.sampled_from(["shake128", "kangarootwelve"]))
    # an 8-bit modulus q ≡ 1 (mod 2N) above 128 exists only for N <= 32.
    # A KangarooTwelve reference segment costs about 30x a SHAKE128 one, so
    # its rings stop at 2^7 to keep the property within a few seconds.
    # Long segments are where short ones and threshold-equal words show up,
    # so the largest ring and the longest segment are drawn more often.
    largest = 5 if w == 8 else 7 if backend == "kangarootwelve" else 10
    log_n = draw(st.integers(0, largest) | st.just(largest))
    t = 1344 // w
    longest = min(log_n, t.bit_length() - 1)
    log_len = draw(st.integers(0, longest) | st.just(longest))
    n_ring, seg_len = 1 << log_n, 1 << log_len
    pool = _moduli_pool(w, n_ring)
    base = draw(st.permutations(pool))[:draw(st.integers(1, min(5, len(pool))))]
    kind = draw(st.sampled_from(["identity", "reverse", "explicit"]))
    if kind == "identity":
        layout = None
    elif kind == "reverse":
        layout = Permutation.reverse(n_ring)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
        layout = Permutation(rng.permutation(n_ring))
    seed = Seed(draw(st.binary(min_size=36, max_size=36)))
    return seed, GenParams(N=n_ring, w=w, seg_len=seg_len, n_seg=n_ring // seg_len,
                           base=tuple(base), layout=layout, backend=backend)


@functools.lru_cache(maxsize=None)
def _partial_modulus(w: int, n_ring: int, seg_len: int) -> int | None:
    """An NTT-friendly q above 2^(w-1) whose segments are short with
    probability near 1/4, so that a limb of several rows often has a short
    row and a complete one; None where even the q just above 2^(w-1) makes
    a short segment rarer than 1/16."""
    t = 1344 // w

    def short(q):  # thresh = q: each word is accepted with probability q / 2^w
        a = Fraction(q, 1 << w)
        return sum(math.comb(t, i) * a ** i * (1 - a) ** (t - i) for i in range(seg_len))

    lo, hi = (1 << (w - 1)) + 1, (1 << w) - 1
    if short(lo) < Fraction(1, 16):
        return None
    while hi - lo > 2 * n_ring:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if short(mid) > Fraction(1, 4) else (lo, mid)
    q = lo - (lo - 1) % (2 * n_ring)
    while not is_ntt_friendly(q, n_ring):
        q += 2 * n_ring
    return q if q < 1 << w else None


@st.composite
def _split_prone_profiles(draw):
    """A short-prone profile with _partial_modulus, where there is one, last in its base."""
    seed, params = draw(_short_prone_profiles())
    q = _partial_modulus(params.w, params.N, params.seg_len)
    if q is not None and q not in params.base:
        params = params.with_base(params.base + (q,))
    return seed, params


def _outcome(run):
    """The (L, N) array a schedule produced, or the (q, id_seg) it failed on."""
    try:
        return run()
    except GenerationFailure as failure:
        return failure.q, failure.id_seg


class TestBatchedLimbMatchesSegments:
    @settings(deadline=None, max_examples=150)
    @given(_short_prone_profiles(), st.integers(1, 4), st.integers(0, 2 ** 32),
           st.sampled_from(["serial", "forked"]) | st.integers(0, 2))
    def test_batched_equals_per_segment(self, case, engines, shuffle_seed, schedule):
        # independent per-segment units (oracles.segment) on engines in a
        # shuffled order are the reference; random access per row and
        # generate_mrp must agree with it, down to the first short
        # (q, id_seg) in base order, whether generate_mrp runs serially,
        # with a helper, or with a helper that dies after `schedule` rows
        seed, params = case
        expected = _outcome(lambda: assemble_segments(seed, params, engines,
                                                      random.Random(shuffle_seed)))
        outcomes = {
            "limbs": _outcome(lambda: np.stack([generate_limb(seed, q, params).coeffs
                                                for q in params.base])),
        }
        short = isinstance(expected, tuple)
        event("short" if short else "complete")
        event(params.backend)
        event(schedule if isinstance(schedule, str) else "helper dies")
        with pytest.MonkeyPatch.context() as monkeypatch, forking(monkeypatch) as pids:
            if schedule == "serial":
                monkeypatch.setattr(sampling, "MIN_FORK_BLOCKS", 1 << 30)
            elif schedule != "forked":
                monkeypatch.setattr(sampling, "generate_limb", dying_helper(schedule))
            mrp = _outcome(lambda: generate_mrp(seed, params))
            outcomes[schedule] = mrp if short else mrp.coeffs
            if not short:
                with tempfile.TemporaryDirectory() as tmp:
                    path = os.path.join(tmp, "x.mrp")
                    write_mrp(path, mrp, params)
                    stored, stored_params = read_mrp(path)
                    assert stored_params.base == params.base
                    assert np.array_equal(stored, expected)
                    assert stored_params.layout.kind == params.layout.kind
                    assert stored_params.layout == params.layout
                    assert verify_mrp_file(path, seed).ok
        # generate_mrp forks, and so does verify_mrp_file after a complete draw
        forks = schedule != "serial" and len(params.base) > 1
        assert len(pids) == (1 + (not short)) * forks
        for name, got in outcomes.items():
            if short:
                assert got == expected, name
            else:
                assert got.dtype == np.uint32, name
                assert np.array_equal(got, expected), name


class TestSplitLimbMatchesSegments:
    @settings(deadline=None, max_examples=100)
    @given(_split_prone_profiles(), st.data())
    def test_a_split_limb_is_the_per_segment_limb(self, case, data):
        # for each limb, this process scans rows [0, h) and the row helper
        # rows [h, n_seg), h drawn so that the short rows fall in this
        # process's half, the helper's or both, where the limb allows: the
        # limb is the per-segment reference (oracles.segment), and a short
        # one names the same (q, id_seg) as the unsplit limb
        seed, params = case
        n = params.n_seg
        event(params.backend)
        for q in params.base:
            expected = _outcome(lambda: assemble_segments(seed, params.with_base([q]), 1,
                                                          random.Random(0))[0])
            unsplit = _outcome(lambda: generate_limb(seed, q, params).coeffs)
            short = [] if not isinstance(expected, tuple) else [
                j for j in range(n) if len(oracles.segment(seed, q, j, params)) < params.seg_len]
            halves = {"the caller's half only": (short[-1] + 1, n - 1),
                      "the helper's half only": (1, short[0]),
                      "both halves": (short[0] + 1, short[-1])} if short else {
                      "no half": (1, n - 1)}
            halves = {name: ends for name, ends in halves.items() if ends[0] <= ends[1]}
            if n < 2:
                h, where = n, "not split"
            else:
                where = data.draw(st.sampled_from(sorted(halves)))
                h = data.draw(st.integers(*halves[where]))
            event(f"short rows in {where}")
            parent, ranges, real = os.getpid(), [], sampling._limb_rows

            def rows(seed, q, ids, p):
                if os.getpid() == parent:
                    ranges.append(ids)
                return real(seed, q, ids, p)

            with pytest.MonkeyPatch.context() as monkeypatch, splitting(monkeypatch):
                monkeypatch.setattr(sampling, "_helper_row", lambda n_seg: h)
                monkeypatch.setattr(sampling, "_limb_rows", rows)
                split = _outcome(lambda: generate_limb(seed, q, params).coeffs)
            assert ranges == [range(h)], q
            for name, got in (("split", split), ("unsplit", unsplit)):
                if short:
                    assert got == expected, (name, q)
                else:
                    assert got.dtype == np.uint32, (name, q)
                    assert np.array_equal(got, expected), (name, q)

    def test_a_short_row_in_either_half_is_the_first_short_segment(self, monkeypatch, split):
        # p_r near 1/5 at len 32 over 8 segments: a split at the first short
        # row leaves it to the helper, one row later keeps it here, and where
        # a seed has a later short row too, that one is the helper's
        q = ntt_primes(256, 1, q_min=(1 << 32) * 4 // 5, q_max=1 << 32)[0]
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(q,))
        seen = set()
        for i in range(32):
            seed = Seed(bytes([i]) * 36)
            short = [j for j in range(8)
                     if len(oracles.segment(seed, q, j, params)) < params.seg_len]
            for h in {short[0], short[0] + 1} & set(range(1, 8)) if short else ():
                monkeypatch.setattr(sampling, "_helper_row", lambda n_seg, h=h: h)
                with pytest.raises(GenerationFailure) as err:
                    generate_limb(seed, q, params)
                assert (err.value.q, err.value.id_seg) == (q, short[0])
                seen.add("helper" if h == short[0] else
                         "both" if short[-1] >= h else "caller")
        assert seen == {"helper", "caller", "both"}
        assert sampling._helper is not None


class TestSegmentMatchesOracle:
    @settings(deadline=None, max_examples=100)
    @given(_short_prone_profiles(), st.data())
    def test_generate_segment_is_the_independent_unit(self, case, data):
        # one row of the engine scan against oracles.segment, which shares no
        # encoder, expander or filter with it; a short segment is data on both
        seed, params = case
        for _ in range(4):
            q = data.draw(st.sampled_from(params.base))
            id_seg = data.draw(st.integers(0, params.n_seg - 1))
            values = generate_segment(seed, q, id_seg, params).values
            expected = oracles.segment(seed, q, id_seg, params)
            event("short" if len(expected) < params.seg_len else "complete")
            assert values.dtype == np.uint32
            assert np.array_equal(values, expected), (q, id_seg)

    def test_the_last_word_of_a_block_can_complete_its_segment(self):
        # p_r near 1/4 at len 32, t = 42: the 32nd acceptance is the block's
        # last word in about one segment in ten, and the scan must reach it
        q = ntt_primes(64, 1, q_min=(1 << 32) * 3 // 4, q_max=1 << 32)[0]
        params = GenParams(N=64, w=32, seg_len=32, n_seg=2, base=(q,))
        for i in range(200):
            seed = Seed(i.to_bytes(36, "little"))
            block = hashlib.shake_128(seed.data + q.to_bytes(4, "little") + bytes(2)).digest(168)
            accepted = np.frombuffer(block, "<u4") < q  # thresh = q for q > 2^31
            if accepted[-1] and accepted.sum() == params.seg_len:
                break
        else:
            pytest.fail("no segment of 200 seeds completes on its last word")
        values = generate_segment(seed, q, 0, params).values
        assert len(values) == params.seg_len
        assert np.array_equal(values, oracles.segment(seed, q, 0, params))


class TestGenerateMrp:
    def test_matches_golden_fixture(self, golden_mrp):
        params = GenParams(N=golden_mrp["N"], w=32, seg_len=golden_mrp["len"],
                           n_seg=golden_mrp["n_seg"], base=golden_mrp["base"])
        mrp = generate_mrp(golden_mrp["seed"], params)
        for q, row in zip(params.base, mrp.coeffs):
            assert row.tolist() == golden_mrp["limbs"][q]

    def test_matches_kangarootwelve_golden_fixture(self, golden_k12_mrp):
        golden = golden_k12_mrp
        params = GenParams(N=golden["N"], w=32, seg_len=golden["len"],
                           n_seg=golden["n_seg"], base=golden["base"],
                           backend=golden["backend"])
        mrp = generate_mrp(golden["seed"], params)
        for q, row in zip(params.base, mrp.coeffs):
            assert row.tolist() == golden["limbs"][q]

    def test_single_modulus_single_segment(self, zero_seed):
        q = ntt_primes(32, 1)[0]
        params = GenParams(N=32, w=32, seg_len=32, n_seg=1, base=(q,))
        mrp = generate_mrp(zero_seed, params)
        assert list(mrp.limbs) == [q]
        assert np.array_equal(mrp.limbs[q].coeffs,
                              generate_segment(zero_seed, q, 0, params).values)

    def test_limb_random_access_equivalence(self, desk_params, zero_seed):
        mrp = generate_mrp(zero_seed, desk_params)
        for q, row in zip(desk_params.base, mrp.coeffs):
            standalone = generate_limb(zero_seed, q, desk_params)
            assert np.array_equal(standalone.coeffs, row)

    def test_equals_helper(self, desk_params, zero_seed):
        assert np.array_equal(generate_mrp(zero_seed, desk_params).coeffs,
                              generate_mrp(zero_seed, desk_params).coeffs)


class TestClientRetry:
    def test_replay_known_good_seed(self, desk_params, zero_seed):
        result = client_generate_with_retry(lambda: zero_seed, desk_params, 5)
        assert result.attempts == 1
        assert result.seed == zero_seed
        assert np.array_equal(result.mrp.coeffs, generate_mrp(zero_seed, desk_params).coeffs)

    def test_exhausts_on_hopeless_profile(self):
        # p_r ≈ 0.5 makes 32 acceptances out of 42 a > 3-sigma event per
        # segment, so per-attempt success is ~1e-7
        q = ntt_primes(64, 1, q_min=2 ** 31, q_max=2 ** 32)[0]
        params = GenParams(N=64, w=32, seg_len=32, n_seg=2, base=(q,))
        assert sample_rejection_prob(q, 32) > 0.4
        source = seed_source_from_rng(random.Random(11))
        with pytest.raises(RetryExhausted) as err:
            client_generate_with_retry(source, params, 4)
        assert err.value.attempts == 4
        assert err.value.last_failure is not None

    def test_rejects_non_positive_attempts(self, desk_params, zero_seed):
        with pytest.raises(ParamsError):
            client_generate_with_retry(lambda: zero_seed, desk_params, 0)

    def test_seed_source_is_replayable(self):
        a = seed_source_from_rng(random.Random(5))
        b = seed_source_from_rng(random.Random(5))
        assert [a().hex() for _ in range(4)] == [b().hex() for _ in range(4)]


_CPU_QUOTA = sampling._cpu_quota  # the real reader, which forking() replaces


def _serial_rows(seed, params):
    return np.stack([generate_limb(seed, q, params).coeffs for q in params.base])


class TestForkedGeneration:
    """Five limbs: this process makes rows from 0 up, the helper from 4 down."""

    @staticmethod
    def _profile(layout=None):
        return GenParams(N=256, w=32, seg_len=32, n_seg=8, base=tuple(ntt_primes(256, 5)),
                         layout=layout)

    def test_golden_fixtures(self, forked, golden_mrp, golden_k12_mrp):
        for golden in (golden_mrp, golden_k12_mrp):
            params = GenParams(N=golden["N"], w=32, seg_len=golden["len"],
                               n_seg=golden["n_seg"], base=golden["base"],
                               backend=golden["backend"])
            mrp = generate_mrp(golden["seed"], params)
            for q, row in zip(params.base, mrp.coeffs):
                assert row.tolist() == golden["limbs"][q]
        assert len(forked) == 2

    @pytest.mark.parametrize("kind", ["identity", "explicit"])
    def test_uneven_interleave_matches_serial(self, forked, zero_seed, kind):
        layout = None if kind == "identity" else Permutation(
            np.random.default_rng(4).permutation(256))
        params = self._profile(layout)
        mrp = generate_mrp(zero_seed, params)
        assert len(forked) == 1
        assert mrp.coeffs.dtype == np.uint32 and mrp.coeffs.flags.writeable
        assert np.array_equal(mrp.coeffs, _serial_rows(zero_seed, params))

    def test_forks_from_min_fork_blocks_on(self, monkeypatch, forked, zero_seed):
        params = self._profile()
        blocks = len(params.base) * params.n_seg
        monkeypatch.setattr(sampling, "MIN_FORK_BLOCKS", blocks + 1)
        generate_mrp(zero_seed, params)
        assert forked == []
        monkeypatch.setattr(sampling, "MIN_FORK_BLOCKS", blocks)
        generate_mrp(zero_seed, params)
        assert len(forked) == 1

    def test_one_helper_on_a_64_cpu_host(self, monkeypatch, forked, zero_seed):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        params = self._profile()
        assert np.array_equal(generate_mrp(zero_seed, params).coeffs,
                              _serial_rows(zero_seed, params))
        assert len(forked) == 1

    @pytest.mark.parametrize("short_rows", [(2, 4), (3, 4), (1, 3), (0, 2)])
    def test_lowest_short_row_is_raised(self, forked, zero_seed, short_rows):
        # p_r below 1/16 (good) or near 1/2 (short): 64 acceptances among
        # 84 words, as in the verify tests of test_formats.py
        good = iter(ntt_primes(64, 3, q_min=61440, q_max=1 << 16))
        short = iter(ntt_primes(64, 2, q_min=1 << 15, q_max=1 << 16))
        base = tuple(next(short) if row in short_rows else next(good) for row in range(5))
        params = GenParams(N=64, w=16, seg_len=64, n_seg=1, base=base)
        with pytest.raises(GenerationFailure) as err:
            generate_mrp(zero_seed, params)
        assert (err.value.q, err.value.id_seg) == (base[short_rows[0]], 0)
        assert forked

    def test_a_row_the_helper_marked_short_is_raised_here(self, monkeypatch, forked,
                                                          zero_seed):
        # the helper makes row 4, meets row 3 short and stops, leaving it
        # unmarked; this process waits for that, makes rows 0 to 3 and
        # raises the failure of row 3, which it made itself
        good = iter(ntt_primes(64, 4, q_min=61440, q_max=1 << 16))
        short = ntt_primes(64, 1, q_min=1 << 15, q_max=1 << 16)[0]
        base = tuple(short if row == 3 else next(good) for row in range(5))
        params = GenParams(N=64, w=16, seg_len=64, n_seg=1, base=base)
        made_here = []
        monkeypatch.setattr(sampling, "generate_limb",
                            caller_waits_for_helper(forked, made_here))
        with pytest.raises(GenerationFailure) as err:
            generate_mrp(zero_seed, params)
        assert (err.value.q, err.value.id_seg) == (short, 0)
        assert made_here == list(base[:4])
        assert len(forked) == 1

    @pytest.mark.parametrize("helper", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("short_row, broken_row", [(0, 4), (1, 3), (0, 2), (2, 3)])
    def test_a_short_row_before_an_error_is_raised(self, monkeypatch, zero_seed, helper,
                                                   short_row, broken_row):
        # the first failure in base order wins whoever meets it, as in the
        # serial loop: the short row, not a later row whose limb raises
        good = iter(ntt_primes(64, 4, q_min=61440, q_max=1 << 16))
        short = ntt_primes(64, 1, q_min=1 << 15, q_max=1 << 16)[0]
        base = tuple(short if row == short_row else next(good) for row in range(5))
        params = GenParams(N=64, w=16, seg_len=64, n_seg=1, base=base)
        real = sampling.generate_limb

        def broken(seed, q, p):
            if q == base[broken_row]:
                raise ParamsError(f"no limb for q={q}")
            return real(seed, q, p)

        monkeypatch.setattr(sampling, "generate_limb", broken)
        with forking(monkeypatch) as pids:
            if not helper:
                monkeypatch.setattr(sampling, "MIN_FORK_BLOCKS", 1 << 30)
            with pytest.raises(GenerationFailure) as err:
                generate_mrp(zero_seed, params)
        assert (err.value.q, err.value.id_seg) == (short, 0)
        assert len(pids) == helper

    def test_a_killed_child_costs_only_its_unmade_rows(self, monkeypatch, forked, zero_seed):
        # the helper makes row 4 and dies as it starts row 3; this process
        # waits for that, then makes rows 0 to 3 and takes row 4 as marked
        params = self._profile()
        expected = _serial_rows(zero_seed, params)
        made_here = []
        monkeypatch.setattr(sampling, "generate_limb", dying_helper(1))
        monkeypatch.setattr(sampling, "generate_limb",
                            caller_waits_for_helper(forked, made_here))
        assert np.array_equal(generate_mrp(zero_seed, params).coeffs, expected)
        assert made_here == list(params.base[:4])
        assert len(forked) == 1

    def test_a_child_killed_inside_visit_leaves_its_row_unmade(self, monkeypatch, forked,
                                                               zero_seed):
        # the helper dies while its first limb is stored: a row counts as
        # made only once it is stored, so this process makes every row.  It
        # waits for the helper's end first, so the exit code is the helper's
        # own: one that raised instead of dying would exit 1, not -SIGKILL.
        params = self._profile()
        expected = _serial_rows(zero_seed, params)
        made_here, codes = [], []
        parent, wait = os.getpid(), sampling._wait
        waiting = caller_waits_for_helper(forked, made_here)

        class KilledOnCopy:
            def __array__(self, dtype=None, copy=None):
                os.kill(os.getpid(), signal.SIGKILL)

        def dying(seed, q, p):
            if os.getpid() != parent:
                return sampling.Limb(coeffs=KilledOnCopy())
            return waiting(seed, q, p)

        def recorded_wait(pid):
            codes.append(wait(pid))
            return codes[-1]

        monkeypatch.setattr(sampling, "generate_limb", dying)
        monkeypatch.setattr(sampling, "_wait", recorded_wait)
        assert np.array_equal(generate_mrp(zero_seed, params).coeffs, expected)
        assert codes == [-signal.SIGKILL]
        assert made_here == list(params.base)
        assert len(forked) == 1

    def test_a_helper_the_kernel_reaped_is_not_waited_for(self, monkeypatch, forked,
                                                          zero_seed):
        # a caller that ignores SIGCHLD has its children reaped for it, so
        # waitpid finds no child: _wait returns None and nothing is raised
        params = self._profile()
        expected = _serial_rows(zero_seed, params)
        codes, wait = [], sampling._wait

        def recorded_wait(pid):
            codes.append(wait(pid))
            return codes[-1]

        monkeypatch.setattr(sampling, "_wait", recorded_wait)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            coeffs = generate_mrp(zero_seed, params).coeffs
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert np.array_equal(coeffs, expected)
        assert codes == [None]
        assert len(forked) == 1

    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["kill", "term"])
    def test_a_child_stops_once_its_caller_is_gone(self, sig):
        # The caller, a fresh interpreter, stalls in its own first row; its
        # helper prints its pid as it starts each of the 16 rows of 0.25 s it
        # would make.  The caller is killed without unwinding as the helper
        # starts its first row.  The helper must then stop after that row
        # (4 s more if it ran on), which shows as the end of the stdout pipe
        # it holds.
        script = "\n".join([
            "import os, time",
            "from mrpgen import GenParams, Seed, generate_mrp, sampling",
            "sampling.MIN_FORK_BLOCKS = 0",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "sampling._cpu_quota = lambda: None",
            "caller, real = os.getpid(), sampling.generate_limb",
            "def slow(seed, q, p):",
            "    if os.getpid() == caller:",
            "        time.sleep(60)",
            "    print(os.getpid(), flush=True)",
            "    time.sleep(0.25)",
            "    return real(seed, q, p)",
            "sampling.generate_limb = slow",
            "generate_mrp(Seed(bytes(36)), GenParams(N=256, w=32, seg_len=32, n_seg=8,",
            f"                                        base={tuple(ntt_primes(256, 16))}))",
        ])
        src = os.path.dirname(os.path.dirname(sampling.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        caller = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                  bufsize=0, env=env)
        child, ended = None, False
        try:
            assert select.select([caller.stdout], [], [], 30)[0], "no child started a row"
            child = int(caller.stdout.readline())
            os.kill(caller.pid, sig)
            assert caller.wait(timeout=30) == -sig
            deadline = time.monotonic() + 1.0
            while not ended and select.select(
                    [caller.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
                ended = caller.stdout.read(4096) == b""
            assert ended, "the child was still making rows 1 s after its caller died"
        finally:
            if caller.poll() is None:
                caller.kill()
                caller.wait()
            if child is not None and not ended:
                # still holding the pipe, so still alive and not a reused pid
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
            caller.stdout.close()

    @pytest.mark.parametrize("fault", ["raise", "exit", "signal"])
    def test_a_failed_child_share_is_generated_again(self, monkeypatch, forked, zero_seed,
                                                      fault):
        params = self._profile()
        expected = _serial_rows(zero_seed, params)
        parent, real = os.getpid(), sampling.generate_limb
        made_here = []

        def faulty(seed, q, p):
            if os.getpid() != parent:
                if fault == "raise":
                    raise RuntimeError("helper fault")
                if fault == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            made_here.append(q)
            return real(seed, q, p)

        monkeypatch.setattr(sampling, "generate_limb", faulty)
        assert np.array_equal(generate_mrp(zero_seed, params).coeffs, expected)
        assert made_here == list(params.base)
        assert len(forked) == 1

    def test_a_stalled_helper_is_not_waited_on(self, monkeypatch, forked, zero_seed,
                                               tmp_path):
        # The helper blocks in its first row; this process waits, through a
        # pipe, until it has, then makes every row itself and must return
        # the serial result without waiting on the helper.
        params = self._profile()
        expected = _serial_rows(zero_seed, params)
        stored = expected.copy()
        stored[2, 100] ^= 1
        path = tmp_path / "stalled.mrp"
        write_mrp(path, MultiResiduePolynomial(params.base, stored), params)
        parent, real = os.getpid(), sampling.generate_limb
        started, never = os.pipe(), os.pipe()
        made_here = []

        def stalling(seed, q, p):
            if os.getpid() != parent:
                os.write(started[1], b"x")
                select.select([never[0]], [], [], 60)
            elif not made_here:
                assert select.select([started[0]], [], [], 30)[0], "no helper started"
                os.read(started[0], 1)
            made_here.append(q)
            return real(seed, q, p)

        monkeypatch.setattr(sampling, "generate_limb", stalling)
        try:
            with within(20):
                coeffs = generate_mrp(zero_seed, params).coeffs
            assert made_here == list(params.base)
            del made_here[:]
            with within(20):
                report = verify_mrp_file(path, zero_seed)
            assert made_here == list(params.base)
        finally:
            for fd in started + never:
                os.close(fd)
        assert np.array_equal(coeffs, expected)
        assert report.detail == f"limb q={params.base[2]} differs first at index 100"
        assert len(forked) == 2

    def test_an_error_met_in_a_child_is_raised_here(self, monkeypatch, forked, zero_seed):
        params = self._profile()
        real = sampling.generate_limb

        def broken(seed, q, p):
            if q == params.base[4]:
                raise ParamsError(f"no limb for q={q}")
            return real(seed, q, p)

        monkeypatch.setattr(sampling, "generate_limb", broken)
        with pytest.raises(ParamsError, match=f"no limb for q={params.base[4]}"):
            generate_mrp(zero_seed, params)
        assert len(forked) == 1

    def test_an_interrupt_kills_and_reaps_the_children(self, monkeypatch, forked, zero_seed):
        parent = os.getpid()

        def stalled(seed, q, p):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(sampling, "generate_limb", stalled)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            generate_mrp(zero_seed, self._profile())
        assert time.monotonic() - start < 30
        assert len(forked) == 1

    def test_an_interrupt_in_a_fresh_child_stays_in_the_child(self, monkeypatch, forked,
                                                               zero_seed):
        # A SIGINT that reaches the helper as soon as it is forked must end
        # it through its os._exit guard (exit 1, which this process waits
        # for before its first row), never unwind it into this test; a
        # helper that did would exit 99 below.
        params = self._profile()
        parent, fork, wait = os.getpid(), os.fork, sampling._wait
        codes, made_here = [], []

        def interrupted_fork():
            pid = fork()
            if pid == 0:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        def recorded_wait(pid):
            codes.append(wait(pid))
            return codes[-1]

        monkeypatch.setattr(os, "fork", interrupted_fork)
        monkeypatch.setattr(sampling, "_wait", recorded_wait)
        monkeypatch.setattr(sampling, "generate_limb",
                            caller_waits_for_helper(forked, made_here))
        try:
            coeffs = generate_mrp(zero_seed, params).coeffs
        finally:
            if os.getpid() != parent:
                os._exit(99)
        assert codes == [1]
        assert made_here == list(params.base)
        assert np.array_equal(coeffs, _serial_rows(zero_seed, params))
        assert len(forked) == 1

    @pytest.mark.parametrize("sigint_held", [False, True])
    def test_the_callers_signal_mask_is_kept(self, forked, zero_seed, sigint_held):
        held = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        try:
            if sigint_held:
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            before = signal.pthread_sigmask(signal.SIG_BLOCK, ())
            generate_mrp(zero_seed, self._profile())
            assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == before
            assert (signal.SIGINT in before) == sigint_held
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        assert len(forked) == 1

    def test_serial_while_another_thread_is_alive(self, forked, zero_seed):
        params = self._profile()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            coeffs = generate_mrp(zero_seed, params).coeffs
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forked == []
        assert np.array_equal(coeffs, _serial_rows(zero_seed, params))

    def test_serial_when_fork_fails(self, monkeypatch, forked, zero_seed):
        attempts = []

        def no_fork():
            attempts.append(None)
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        params = self._profile()
        assert np.array_equal(generate_mrp(zero_seed, params).coeffs,
                              _serial_rows(zero_seed, params))
        assert len(attempts) == 1

    # fake cgroup trees: (/proc/self/cgroup text, {file under the root: text})
    V1 = "12:cpu,cpuacct:/job\n3:memory:/job\n0::/\n"
    V2 = "0::/job\n"
    CGROUPS = {
        "v1-one-cpu": (V1, {"cpu/job/cpu.cfs_quota_us": "150000\n",
                            "cpu/job/cpu.cfs_period_us": "100000\n"}, 1),
        "v1-two-cpus": (V1, {"cpu/job/cpu.cfs_quota_us": "200000\n",
                             "cpu/job/cpu.cfs_period_us": "100000\n"}, 2),
        "v1-half-cpu": (V1, {"cpu/job/cpu.cfs_quota_us": "50000\n",
                             "cpu/job/cpu.cfs_period_us": "100000\n"}, 0),
        "v1-no-quota": (V1, {"cpu/job/cpu.cfs_quota_us": "-1\n",
                             "cpu/job/cpu.cfs_period_us": "100000\n"}, None),
        "v1-no-period": (V1, {"cpu/job/cpu.cfs_quota_us": "100000\n"}, None),
        "v1-unreadable": (V1, {"cpu/job/cpu.cfs_quota_us/x": "",
                               "cpu/job/cpu.cfs_period_us": "100000\n"}, None),
        "v2-one-cpu": (V2, {"job/cpu.max": "100000 100000\n"}, 1),
        "v2-two-cpus": (V2, {"job/cpu.max": "250000 100000\n"}, 2),
        "v2-max": (V2, {"job/cpu.max": "max 100000\n"}, None),
        "v2-missing": (V2, {}, None),
        "v2-malformed": (V2, {"job/cpu.max": "100000\n"}, None),
        "v2-zero-period": (V2, {"job/cpu.max": "100000 0\n"}, None),
        "no-cgroup-file": (None, {}, None),
        "malformed-cgroup-file": ("cpu\n", {}, None),
    }

    @pytest.fixture(params=list(CGROUPS), ids=list(CGROUPS))
    def cgroup(self, request, monkeypatch, tmp_path):
        """A fake cgroup tree under tmp_path; the CPUs its quota grants."""
        proc, files, cpus = self.CGROUPS[request.param]
        if proc is not None:
            (tmp_path / "cgroup").write_text(proc)
        for name, text in files.items():
            (tmp_path / "root" / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "root" / name).write_text(text)
        monkeypatch.setattr(sampling, "_PROC_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(sampling, "_CGROUP_ROOT", str(tmp_path / "root"))
        return cpus

    def test_a_cpu_quota_below_two_cpus_keeps_the_loop_serial(self, monkeypatch, forked,
                                                              zero_seed, cgroup):
        # forked stands in for a host with no quota; read the fake tree instead
        monkeypatch.setattr(sampling, "_cpu_quota", _CPU_QUOTA)
        assert sampling._cpu_quota() == cgroup
        params = self._profile()
        assert np.array_equal(generate_mrp(zero_seed, params).coeffs,
                              _serial_rows(zero_seed, params))
        assert len(forked) == (cgroup is None or cgroup >= 2)

    @pytest.mark.parametrize("module, missing", [(os, "fork"), (os, "sched_getaffinity"),
                                                 (signal, "pthread_sigmask")],
                             ids=["fork", "sched_getaffinity", "pthread_sigmask"])
    def test_serial_without_the_os_calls(self, monkeypatch, forked, zero_seed, module,
                                         missing):
        monkeypatch.delattr(module, missing)
        params = self._profile()
        assert np.array_equal(generate_mrp(zero_seed, params).coeffs,
                              _serial_rows(zero_seed, params))
        assert forked == []


def _running(pid: int) -> bool:
    """Whether pid is a process that has not exited; a zombie has."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


class TestRowHelper:
    """Eight-row limbs split at row 4: this process scans rows 0 to 3, the
    row helper rows 4 to 7, and each call returns the unsplit bits."""

    BASE = tuple(ntt_primes(256, 4))
    PARAMS = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=BASE)

    def _check(self, seed, q):
        expected = assemble_segments(seed, self.PARAMS.with_base([q]), 1, random.Random(0))[0]
        assert np.array_equal(generate_limb(seed, q, self.PARAMS).coeffs, expected)

    def test_one_helper_serves_every_call(self, split, zero_seed):
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(None)
            return fork()

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(os, "fork", counted_fork)
            for q in self.BASE:
                self._check(zero_seed, q)
        assert len(forks) == 1

    def test_the_helper_ignores_sigint(self, split, zero_seed):
        self._check(zero_seed, self.BASE[0])
        pid = sampling._helper.pid
        os.kill(pid, signal.SIGINT)
        time.sleep(0.2)
        assert os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
        self._check(zero_seed, self.BASE[1])
        assert sampling._helper.pid == pid

    def test_the_helper_holds_no_descriptor_of_its_creator(self, split, zero_seed):
        # a socket open at the fork and closed after the call must end at its
        # peer: the helper, which outlives the call, kept no copy of it
        ours, peer = socket.socketpair()
        try:
            self._check(zero_seed, self.BASE[0])
            pid = sampling._helper.pid
            if os.path.isdir(f"/proc/{pid}/fd"):
                assert len(os.listdir(f"/proc/{pid}/fd")) == 2  # its two pipe ends
            ours.close()
            peer.settimeout(10)
            assert peer.recv(1) == b""
        finally:
            ours.close()
            peer.close()
        self._check(zero_seed, self.BASE[1])
        assert sampling._helper.pid == pid

    def test_a_split_that_does_not_pay_makes_the_next_calls_unsplit(self, monkeypatch, split,
                                                                    zero_seed):
        # no split pays: the first only arms the back-off, and after each
        # next one the next 1, 3 and then 3 calls (_SKIP_MAX patched to 3)
        # are unsplit; once a split pays, every call splits again.  The
        # bits never change.
        parent, real = os.getpid(), sampling._limb_rows
        kinds = []

        def rows(seed, q, ids, p):
            if os.getpid() == parent:
                kinds.append("split" if len(ids) == 4 else "whole")
            return real(seed, q, ids, p)

        monkeypatch.setattr(sampling, "_limb_rows", rows)
        monkeypatch.setattr(sampling, "_SKIP_MAX", 3)
        monkeypatch.setattr(sampling, "SPLIT_PAYS", 0.0)
        for i in range(15):
            self._check(zero_seed, self.BASE[i % 4])
        runs = [len(list(run)) * (1 if kind == "split" else -1)
                for kind, run in itertools.groupby(kinds)]
        assert runs == [2, -1, 1, -3, 1, -3, 1, -3]
        monkeypatch.setattr(sampling, "SPLIT_PAYS", math.inf)
        del kinds[:]
        for i in range(3):
            self._check(zero_seed, self.BASE[i])
        assert kinds == ["split"] * 3 and sampling._backoff == 0

    def test_a_split_pays_within_its_share_of_twice_its_own_cpu_time(self, monkeypatch):
        monkeypatch.setattr(sampling, "_skip", 0)
        monkeypatch.setattr(sampling, "_backoff", 0)
        paid = sampling.SPLIT_PAYS * 2 * 0.5  # the longest split of a 0.5 s half that pays
        sampling._pace(paid * 0.99, 0.5)
        assert (sampling._skip, sampling._backoff) == (0, 0)
        sampling._pace(paid * 1.01, 0.5)
        assert (sampling._skip, sampling._backoff) == (0, 1)  # armed only
        sampling._pace(paid * 1.01, 0.5)
        assert (sampling._skip, sampling._backoff) == (1, 3)
        sampling._pace(paid * 1.01, 0.5)
        assert (sampling._skip, sampling._backoff) == (3, 7)
        sampling._pace(paid * 0.99, 0.5)
        assert sampling._backoff == 0

    def test_a_helper_killed_between_calls_is_replaced(self, split, zero_seed):
        self._check(zero_seed, self.BASE[0])
        pid = sampling._helper.pid
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        self._check(zero_seed, self.BASE[1])
        assert sampling._helper.pid != pid
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # reaped before the new one was forked

    @pytest.mark.parametrize("where", ["_limb_rows", "_answer"])
    def test_an_interrupt_in_a_call_discards_the_helper(self, monkeypatch, split, zero_seed,
                                                        where):
        # Ctrl-C while this process scans its half, or while it waits for
        # the reply: the helper, which has a request in hand, is killed and
        # reaped, so no reply of that call is read by the next one
        self._check(zero_seed, self.BASE[0])
        pid = sampling._helper.pid

        def interrupted(*args):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(sampling, where, interrupted)
            with pytest.raises(KeyboardInterrupt):
                generate_limb(zero_seed, self.BASE[1], self.PARAMS)
        assert sampling._helper is None
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        self._check(zero_seed, self.BASE[2])
        assert sampling._helper.pid != pid

    @pytest.mark.parametrize("fault", ["raise", "kill"])
    def test_a_helper_that_fails_in_a_call_leaves_its_rows_here(self, monkeypatch, split,
                                                                zero_seed, fault):
        # the helper fails its first request: this process meets the end of
        # the reply pipe, stops the helper and scans rows 4 to 7 itself
        parent, real = os.getpid(), sampling._limb_rows
        failed = sampling._shared_array((1,), np.int64)  # one flag across the forks
        ranges = []

        def failing(seed, q, ids, p):
            if os.getpid() == parent:
                ranges.append(ids)
            elif not failed[0]:
                failed[0] = 1
                if fault == "raise":
                    raise RuntimeError("helper fault")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(seed, q, ids, p)

        monkeypatch.setattr(sampling, "_limb_rows", failing)
        self._check(zero_seed, self.BASE[0])
        assert sampling._helper is None and failed[0]
        assert ranges == [range(4), range(4, 8)]
        self._check(zero_seed, self.BASE[1])
        assert sampling._helper is not None
        assert ranges[2:] == [range(4)]

    def test_a_forked_child_never_uses_its_creators_helper(self, split, zero_seed):
        self._check(zero_seed, self.BASE[0])
        pid = sampling._helper.pid
        expected = assemble_segments(zero_seed, self.PARAMS.with_base([self.BASE[1]]), 1,
                                     random.Random(0))[0]
        report = os.pipe()
        child = os.fork()
        if child == 0:
            code = 1
            try:
                os.close(report[0])
                coeffs = generate_limb(zero_seed, self.BASE[1], self.PARAMS).coeffs
                used = sampling._helper.pid if sampling._helper else 0
                os.write(report[1], f"{int(np.array_equal(coeffs, expected))} {used}".encode())
                code = 0
            finally:
                os._exit(code)
        os.close(report[1])
        try:
            with within(30):
                message = os.read(report[0], 100)
                status = os.waitpid(child, 0)[1]
        finally:
            os.close(report[0])
        assert os.waitstatus_to_exitcode(status) == 0
        same, used = map(int, message.split())
        assert same and used not in (0, pid)  # the child forked a helper of its own
        self._check(zero_seed, self.BASE[2])
        assert sampling._helper.pid == pid

    def test_a_second_thread_does_not_wait_for_the_helper(self, monkeypatch, split,
                                                          zero_seed):
        # while one thread holds the helper, a call from another thread scans
        # its whole limb itself and returns before the first call does
        self._check(zero_seed, self.BASE[0])
        pid = sampling._helper.pid
        parent, real = os.getpid(), sampling._limb_rows
        holding, released = threading.Event(), threading.Event()
        ranges, results = [], {}

        def rows(seed, q, ids, p):
            name = threading.current_thread().name
            if os.getpid() == parent:
                ranges.append((name, ids))
                if name == "first":
                    holding.set()
                    released.wait(30)
            return real(seed, q, ids, p)

        def call(q):
            results[threading.current_thread().name] = generate_limb(zero_seed, q,
                                                                     self.PARAMS).coeffs

        monkeypatch.setattr(sampling, "_limb_rows", rows)
        first = threading.Thread(target=call, args=(self.BASE[1],), name="first")
        second = threading.Thread(target=call, args=(self.BASE[2],), name="second")
        first.start()
        try:
            assert holding.wait(30)
            second.start()
            second.join(30)
            assert not second.is_alive() and "first" not in results
        finally:
            released.set()
            first.join(30)
            second.join(30)
        assert ranges == [("first", range(4)), ("second", range(8))]
        for name, q in (("first", self.BASE[1]), ("second", self.BASE[2])):
            expected = assemble_segments(zero_seed, self.PARAMS.with_base([q]), 1,
                                         random.Random(0))[0]
            assert np.array_equal(results[name], expected), name
        self._check(zero_seed, self.BASE[3])
        assert sampling._helper.pid == pid

    def test_threads_that_share_the_helper_get_their_own_bits(self, split):
        # six threads on two cores, switching every microsecond, each making
        # limbs of its own seeds: a reply read by the wrong call, or a pipe
        # left out of sync, would hand some call another limb's bits
        self._check(Seed(bytes(36)), self.BASE[0])  # the fork, before any thread
        pid = sampling._helper.pid
        calls = [(Seed(bytes([i]) * 36), q) for i in range(1, 7) for q in self.BASE]
        expected = {call: assemble_segments(call[0], self.PARAMS.with_base([call[1]]), 1,
                                            random.Random(0))[0] for call in calls}
        wrong = []

        def work(i):
            try:
                for seed, q in calls[4 * i:4 * i + 4]:
                    coeffs = generate_limb(seed, q, self.PARAMS).coeffs
                    if not np.array_equal(coeffs, expected[seed, q]):
                        wrong.append((seed, q))
            except Exception as exc:
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert sampling._helper.pid == pid

    def test_the_rows_of_each_limb_are_not_split(self, monkeypatch, forked, split, zero_seed):
        # _each_limb's own helper holds the second CPU: neither side of it
        # splits a row, and a call after it splits again
        mrp = generate_mrp(zero_seed, self.PARAMS)
        assert len(forked) == 1 and sampling._helper is None
        assert np.array_equal(mrp.coeffs, assemble_segments(zero_seed, self.PARAMS, 1,
                                                            random.Random(0)))
        self._check(zero_seed, self.BASE[0])
        assert len(forked) == 2 and sampling._helper.pid == forked[1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat")
    @pytest.mark.parametrize("end", ["exit", "kill", "kill-with-a-sibling"])
    def test_the_helper_is_gone_once_its_creator_ends(self, end):
        # A fresh interpreter splits one limb and prints its helper's pid; it
        # then exits (its atexit hook kills and reaps the helper) or is
        # SIGKILLed (the helper meets the end of its request pipe).  With a
        # sibling forked from it still holding that pipe open, the helper
        # leaves once its parent is no longer its creator.  Within 2 s the
        # helper must be gone or a zombie.
        script = "\n".join([
            "import os, sys, time",
            "from mrpgen import GenParams, Seed, generate_limb, sampling",
            "sampling.MIN_SPLIT_ROWS = 2",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "sampling._cpu_quota = lambda: None",
            f"params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base={self.BASE})",
            "generate_limb(Seed(bytes(36)), params.base[0], params)",
            "sibling = os.fork() if sys.argv[1] == 'kill-with-a-sibling' else -1",
            "if sibling == 0:",
            "    time.sleep(60)",
            "    os._exit(0)",
            "print(sampling._helper.pid, sibling, flush=True)",
            "if sys.argv[1] != 'exit':",
            "    time.sleep(60)",
        ])
        src = os.path.dirname(os.path.dirname(sampling.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        creator = subprocess.Popen([sys.executable, "-c", script, end], stdout=subprocess.PIPE,
                                   env=env)
        sibling = -1
        try:
            assert select.select([creator.stdout], [], [], 30)[0], "no limb was split"
            helper, sibling = map(int, creator.stdout.readline().split())
            if end != "exit":
                creator.kill()
            assert creator.wait(timeout=30) == (0 if end == "exit" else -signal.SIGKILL)
            deadline = time.monotonic() + 2
            while _running(helper) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _running(helper), f"the helper was running 2 s after its creator ({end})"
        finally:
            if creator.poll() is None:
                creator.kill()
                creator.wait()
            if sibling > 0:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(sibling, signal.SIGKILL)
            creator.stdout.close()


_BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "linalg"}


def _blas_uses(source: str) -> list[str]:
    """Lines of source that use the @ operator or name a BLAS-backed numpy routine."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        names = (node.attr if isinstance(node, ast.Attribute) else
                 node.id if isinstance(node, ast.Name) else
                 node.name if isinstance(node, ast.alias) else "")
        found += [f"{node.lineno}: {part}" for part in names.split(".")
                  if part in _BLAS_NAMES]
    return found


def test_the_forked_path_calls_no_blas_routine():
    # _may_fork allows a fork while numpy's OpenBLAS pool thread is alive; a
    # child is safe only while the code it runs never enters BLAS
    assert sorted(_blas_uses("from numpy import linalg\nx = a @ b\ny = np.dot(a, b)\n"
                             "c @= d\n")) == ["1: linalg", "2: @", "3: dot", "4: @"]
    for module in (sampling, xof, keccak, formats):
        assert _blas_uses(inspect.getsource(module)) == [], module.__name__
