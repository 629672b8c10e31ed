import hashlib
import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mrpgen import (GenerationFailure, GenParams, ParamsError, Permutation,
                    RetryExhausted, Seed, client_generate_with_retry,
                    compute_threshold, gen_seg, generate_limb, generate_mrp,
                    generate_segment, is_ntt_friendly, permute, reduce_coeffs,
                    sample_rejection_prob, seed_source_from_rng,
                    verify_distributed_equivalence)
from mrpgen import keccak, sampling, xof
from mrpgen.xof import encode_domain_input

from conftest import ntt_primes


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


class TestGenSeg:
    def test_empty_request(self, zero_seed):
        seg = gen_seg(encode_domain_input(zero_seed, 97, 0), 97, 0, 32)
        assert len(seg.values) == 0 and seg.complete(0)

    def test_matches_golden_fixture(self, golden_segment):
        data = encode_domain_input(golden_segment["seed"], golden_segment["q"],
                                   golden_segment["id_seg"])
        seg = gen_seg(data, golden_segment["q"], golden_segment["len"],
                      golden_segment["w"])
        assert list(seg.values) == golden_segment["values"]

    def test_matches_kangarootwelve_golden_fixture(self, golden_k12_segment):
        golden = golden_k12_segment
        data = encode_domain_input(golden["seed"], golden["q"], golden["id_seg"])
        seg = gen_seg(data, golden["q"], golden["len"], golden["w"],
                      backend=golden["backend"])
        assert list(seg.values) == golden["values"]

    def test_all_values_below_threshold(self, zero_seed):
        q = 786433
        seg = gen_seg(encode_domain_input(zero_seed, q, 0), q, 42, 32)
        thresh = compute_threshold(q, 32)
        assert all(int(v) < thresh for v in seg.values)

    def test_scan_order_is_block_order(self, zero_seed):
        # with q = 3 nearly every word is accepted, so the segment must be
        # the block's word sequence minus any world-record 2^32-1 words
        from mrpgen import split_words, xof_expand
        data = encode_domain_input(zero_seed, 3, 0)
        words = split_words(xof_expand(data), 32)
        expected = [int(wv) for wv in words if wv < 2 ** 32 - 1][:42]
        seg = gen_seg(data, 3, 42, 32)
        assert list(seg.values) == expected

    @pytest.mark.parametrize("q", [2, 4])
    def test_power_of_two_modulus_accepts_every_word(self, zero_seed, q):
        # q divides 2^w, so thresh = 2^w and every 8-bit word is kept
        from mrpgen import split_words, xof_expand
        data = encode_domain_input(zero_seed, q, 0)
        seg = gen_seg(data, q, 168, 8)
        assert list(seg.values) == list(split_words(xof_expand(data), 8))

    def test_short_segment_is_a_value(self, zero_seed):
        # q barely above 2^31 rejects roughly half of all words, so 42
        # acceptances out of 42 candidates is effectively impossible
        q = ntt_primes(64, 1, q_min=2 ** 31, q_max=2 ** 32)[0]
        seg = gen_seg(encode_domain_input(zero_seed, q, 0), q, 42, 32)
        assert not seg.complete(42)
        assert len(seg.values) < 42


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
        assert np.array_equal(permute(permute(coeffs, p), p.inverse()), coeffs)

    def test_rejects_non_bijection(self):
        with pytest.raises(ParamsError):
            Permutation([0, 0, 2])

    def test_identity_returns_the_coefficients_uncopied(self):
        coeffs = np.arange(10, 20, dtype=np.uint32)
        assert permute(coeffs, Permutation.identity(10)) is coeffs

    def test_identity_kind_requires_the_identity_mapping(self):
        with pytest.raises(ParamsError):
            Permutation([1, 0, 2], kind="identity")

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

    def test_t_property(self, desk_params):
        assert desk_params.t == 42


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
        def refuse(*args):
            raise AssertionError("generate_limb encoded one segment input")

        monkeypatch.setattr(xof, "encode_domain_input", refuse)
        monkeypatch.setattr(sampling, "encode_domain_input", refuse)
        k12 = golden_k12_limb
        params = GenParams(N=k12["N"], w=32, seg_len=k12["len"], n_seg=k12["n_seg"],
                           base=(k12["q"],), backend=k12["backend"])
        coeffs = generate_limb(k12["seed"], k12["q"], params).coeffs
        assert hashlib.sha256(coeffs.astype("<u4").tobytes()).hexdigest() == k12["sha256"]
        params = GenParams(N=golden_mrp["N"], w=32, seg_len=golden_mrp["len"],
                           n_seg=golden_mrp["n_seg"], base=golden_mrp["base"])
        for q, expected in golden_mrp["limbs"].items():
            assert generate_limb(golden_mrp["seed"], q, params).coeffs.tolist() == expected

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


def _moduli_above_half_word(w: int, n_ring: int, count: int = 3) -> list[int]:
    """The first NTT-friendly q > 2^(w-1): about half of all words are rejected."""
    found = []
    for q in range((1 << (w - 1)) + 1, 1 << w, 2 * n_ring):
        if is_ntt_friendly(q, n_ring):
            found.append(q)
            if len(found) == count:
                break
    return found


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
    q = draw(st.sampled_from(_moduli_above_half_word(w, n_ring)))
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
                           base=(q,), layout=layout, backend=backend)


class TestBatchedLimbMatchesSegments:
    @settings(deadline=None, max_examples=150)
    @given(_short_prone_profiles())
    def test_batched_equals_per_segment(self, case):
        seed, params = case
        q = params.base[0]
        segments = [generate_segment(seed, q, i, params) for i in range(params.n_seg)]
        short = [i for i, seg in enumerate(segments) if not seg.complete(params.seg_len)]
        event("short" if short else "complete")
        event(params.backend)
        if short:
            with pytest.raises(GenerationFailure) as err:
                generate_limb(seed, q, params)
            assert (err.value.q, err.value.id_seg) == (q, short[0])
        else:
            expected = permute(np.concatenate([seg.values for seg in segments]),
                               params.layout)
            limb = generate_limb(seed, q, params)
            assert limb.coeffs.dtype == np.uint32
            assert np.array_equal(limb.coeffs, expected)


class TestGenerateMrp:
    def test_matches_golden_fixture(self, golden_mrp):
        params = GenParams(N=golden_mrp["N"], w=32, seg_len=golden_mrp["len"],
                           n_seg=golden_mrp["n_seg"], base=golden_mrp["base"])
        mrp = generate_mrp(golden_mrp["seed"], params)
        for q, expected in golden_mrp["limbs"].items():
            assert mrp.limbs[q].coeffs.tolist() == expected

    def test_matches_kangarootwelve_golden_fixture(self, golden_k12_mrp):
        golden = golden_k12_mrp
        params = GenParams(N=golden["N"], w=32, seg_len=golden["len"],
                           n_seg=golden["n_seg"], base=golden["base"],
                           backend=golden["backend"])
        mrp = generate_mrp(golden["seed"], params)
        for q, expected in golden["limbs"].items():
            assert mrp.limbs[q].coeffs.tolist() == expected

    def test_single_modulus_single_segment(self, zero_seed):
        q = ntt_primes(32, 1)[0]
        params = GenParams(N=32, w=32, seg_len=32, n_seg=1, base=(q,))
        mrp = generate_mrp(zero_seed, params)
        assert list(mrp.limbs) == [q]
        assert np.array_equal(mrp.limbs[q].coeffs,
                              generate_segment(zero_seed, q, 0, params).values)

    def test_limb_random_access_equivalence(self, desk_params, zero_seed):
        mrp = generate_mrp(zero_seed, desk_params)
        for q in desk_params.base:
            standalone = generate_limb(zero_seed, q, desk_params)
            assert np.array_equal(standalone.coeffs, mrp.limbs[q].coeffs)

    def test_equals_helper(self, desk_params, zero_seed):
        assert generate_mrp(zero_seed, desk_params).equals(
            generate_mrp(zero_seed, desk_params))


class TestReduceCoeffs:
    def test_below_q_unchanged(self):
        from mrpgen import Limb
        limb = Limb(q=97, coeffs=np.array([0, 5, 96], dtype=np.uint32))
        assert list(reduce_coeffs(limb)) == [0, 5, 96]

    def test_wraps_exact_multiples(self):
        from mrpgen import Limb
        limb = Limb(q=97, coeffs=np.array([97, 194, 97 * 3 + 5], dtype=np.uint32))
        assert list(reduce_coeffs(limb)) == [0, 0, 5]

    def test_generated_limb_reduces_into_range(self, desk_params, zero_seed):
        limb = generate_limb(zero_seed, 7681, desk_params)
        residues = reduce_coeffs(limb)
        assert residues.max() < 7681


class TestClientRetry:
    def test_replay_known_good_seed(self, desk_params, zero_seed):
        result = client_generate_with_retry(lambda: zero_seed, desk_params, 5)
        assert result.attempts == 1
        assert result.seed == zero_seed
        assert result.mrp.equals(generate_mrp(zero_seed, desk_params))

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


class TestDistributedEquivalence:
    def test_single_engine(self, desk_params, zero_seed):
        report = verify_distributed_equivalence(zero_seed, desk_params, 1)
        assert report.ok and report.work_items == 16

    def test_maximal_parallelism(self, desk_params, zero_seed):
        engines = desk_params.n_seg * len(desk_params.base)
        report = verify_distributed_equivalence(zero_seed, desk_params, engines,
                                                schedules=5,
                                                rng=random.Random(1))
        assert report.ok and report.schedules == 5

    def test_rejects_zero_engines(self, desk_params, zero_seed):
        with pytest.raises(ParamsError):
            verify_distributed_equivalence(zero_seed, desk_params, 0)
