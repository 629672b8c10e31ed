import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrpgen import (CatalogFilter, ParamsError, PrimeRecord,
                    enumerate_supported, histogram, hw_naf, is_ntt_friendly, is_prime,
                    sample_rejection_prob, size_bucket)
from mrpgen import primes
from mrpgen.profiles import (DEFAULT_HW_NAF_MAX, DEFAULT_N, DEFAULT_Q_MIN_EXCLUSIVE,
                             DEFAULT_W, REFERENCE_ROWS)

from oracles import naf


def naf_value(digits):
    return sum(d << i for i, d in enumerate(digits))


def naf_weight(n):
    """The digit-loop weight: the oracle for hw_naf's closed form."""
    return sum(1 for d in naf(n) if d)


class TestNaf:
    def test_zero(self):
        assert naf(0) == []

    def test_power_of_two_minus_one(self):
        assert naf(7) == [-1, 0, 0, 1]

    def test_known_three_term_prime(self):
        digits = naf(786433)
        nonzero = {i: d for i, d in enumerate(digits) if d}
        assert nonzero == {0: 1, 18: -1, 20: 1}

    def test_rejects_negative(self):
        with pytest.raises(ParamsError):
            naf(-1)

    @given(st.integers(min_value=0, max_value=1 << 48))
    def test_reconstructs_and_nonadjacent(self, n):
        digits = naf(n)
        assert naf_value(digits) == n
        assert all(abs(d) <= 1 for d in digits)
        assert all(not (digits[i] and digits[i + 1]) for i in range(len(digits) - 1))
        if n:
            assert len(digits) <= n.bit_length() + 1


class TestHwNaf:
    def test_closed_form_matches_digit_loop(self):
        assert [hw_naf(n) for n in range(5000)] == [naf_weight(n) for n in range(5000)]

    @given(st.integers(min_value=0, max_value=1 << 200))
    def test_closed_form_matches_digit_loop_on_big_integers(self, n):
        assert hw_naf(n) == naf_weight(n)

    def test_rejects_negative(self):
        with pytest.raises(ParamsError):
            hw_naf(-1)

    def test_powers_of_two(self):
        for k in range(1, 40):
            assert hw_naf(1 << k) == 1

    def test_examples(self):
        assert hw_naf(7) == 2
        assert hw_naf(786433) == 3

    def test_two_term_forms(self):
        for a in range(4, 40, 3):
            for b in range(0, a - 1, 5):
                if a - b >= 2:
                    assert hw_naf((1 << a) + (1 << b)) <= 2
                    assert hw_naf((1 << a) - (1 << b)) <= 2


class TestIsPrime:
    def test_against_sieve(self):
        limit = 20000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        for n in range(limit):
            assert is_prime(n) == sieve[n], n

    def test_large_known_values(self):
        assert is_prime(2 ** 31 - 1)
        assert not is_prime(2 ** 32 - 1)
        assert is_prime(786433)
        assert not is_prime(786433 * 3)

    def test_rejects_beyond_proven_range(self):
        with pytest.raises(ParamsError):
            is_prime((1 << 64) + 1)


class TestNttFriendly:
    def test_example_true(self):
        assert is_ntt_friendly(17, 8)

    def test_wrong_residue(self):
        assert not is_ntt_friendly(41, 8)

    def test_composite_with_right_residue(self):
        assert 33 % 16 == 1 and not is_ntt_friendly(33, 8)

    def test_requires_power_of_two_ring(self):
        with pytest.raises(ParamsError):
            is_ntt_friendly(17, 12)


class TestSampleRejectionProb:
    def test_exact_small(self):
        assert sample_rejection_prob(3, 32) == Fraction(1, 1 << 32)

    def test_exact_medium(self):
        assert sample_rejection_prob(786433, 32) == Fraction((1 << 32) % 786433, 1 << 32)

    def test_always_below_half(self):
        rng = random.Random(7)
        for _ in range(200):
            q = rng.randrange(3, 1 << 32, 2)
            assert sample_rejection_prob(q, 32) < Fraction(1, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamsError):
            sample_rejection_prob(1, 32)
        with pytest.raises(ParamsError):
            sample_rejection_prob(1 << 32, 32)


class TestSizeBucket:
    def test_exact_powers(self):
        assert size_bucket(1 << 20) == 20
        assert size_bucket((1 << 20) + 1) == 20  # just above: still rounds down
        assert size_bucket((1 << 20) - 1) == 20

    def test_round_boundary(self):
        # 2^20.5 boundary: 1482910 is just below, 1482911 just above
        assert size_bucket(1482910) == 20
        assert size_bucket(1482911) == 21

    def test_conventions(self):
        # round(log2 q) lies between floor(log2 q) and ceil(log2 q)
        assert size_bucket(786433) == 20  # log2 ≈ 19.585
        for q in range(2, 5000):
            assert q.bit_length() - 1 <= size_bucket(q) <= (q - 1).bit_length()

    def test_rejects_q_below_two(self):
        with pytest.raises(ParamsError):
            size_bucket(1)


class TestEnumerateSupported:
    def test_small_ring_brute_force(self):
        filt = CatalogFilter(n_ring=8, w=7, hw_naf_max=7, p_r_max=Fraction(1, 2))
        catalog = enumerate_supported(filt)
        brute = [q for q in range(2, 1 << 7)
                 if is_prime(q) and q % 16 == 1
                 and sample_rejection_prob(q, 7) <= Fraction(1, 2)]
        assert list(catalog.moduli()) == brute == [17, 97, 113]

    def test_records_pass_filter(self):
        filt = CatalogFilter(n_ring=256, w=16, hw_naf_max=3, p_r_max=Fraction("0.1"))
        catalog = enumerate_supported(filt)
        assert len(catalog) > 0
        for rec in catalog:
            assert is_ntt_friendly(rec.q, 256)
            assert rec.hw_naf == hw_naf(rec.q) <= 3
            assert rec.p_r == sample_rejection_prob(rec.q, 16) <= Fraction("0.1")

    def test_sorted_unique(self):
        filt = CatalogFilter(n_ring=64, w=16, hw_naf_max=8, p_r_max=Fraction(1, 2))
        moduli = enumerate_supported(filt).moduli()
        assert list(moduli) == sorted(set(moduli))

    def test_monotone_in_p_r_cap(self):
        base = dict(n_ring=256, w=20, hw_naf_max=4)
        small = enumerate_supported(CatalogFilter(**base, p_r_max=Fraction("0.05")))
        large = enumerate_supported(CatalogFilter(**base, p_r_max=Fraction("0.4")))
        assert set(small.moduli()) <= set(large.moduli())

    def test_monotone_in_weight_cap(self):
        base = dict(n_ring=256, w=20, p_r_max=Fraction(1, 2))
        small = enumerate_supported(CatalogFilter(**base, hw_naf_max=3))
        large = enumerate_supported(CatalogFilter(**base, hw_naf_max=6))
        assert set(small.moduli()) <= set(large.moduli())

    def test_q_min_exclusive(self):
        filt = CatalogFilter(n_ring=8, w=7, hw_naf_max=7, p_r_max=Fraction(1, 2),
                             q_min_exclusive=17)
        assert list(enumerate_supported(filt).moduli()) == [97, 113]

    def test_scan_bound_counts_candidates_exactly(self, monkeypatch):
        # candidates 17, 33, ..., 113: seven below 2^7
        filt = CatalogFilter(n_ring=8, w=7, hw_naf_max=7, p_r_max=Fraction(1, 2))
        monkeypatch.setattr(primes, "MAX_CANDIDATES", 7)
        assert list(enumerate_supported(filt).moduli()) == [17, 97, 113]
        monkeypatch.setattr(primes, "MAX_CANDIDATES", 6)
        with pytest.raises(ParamsError, match="7 candidates"):
            enumerate_supported(filt)

    def test_refuses_an_unbounded_scan_before_testing(self, monkeypatch):
        def fail(_):
            raise AssertionError("a candidate was tested")

        monkeypatch.setattr(primes, "is_prime", fail)
        with pytest.raises(ParamsError, match="--qmin-bits"):
            enumerate_supported(CatalogFilter(n_ring=8, w=48, hw_naf_max=7,
                                              p_r_max=Fraction(1, 2)))

    def test_test_bound_counts_weight_capped_candidates_exactly(self, monkeypatch):
        # of the candidates 17, 33, ..., 113 only those under the weight cap count
        filt = CatalogFilter(n_ring=8, w=7, hw_naf_max=2, p_r_max=Fraction(1, 2))
        light = [q for q in range(17, 1 << 7, 16) if hw_naf(q) <= 2]
        assert len(light) < 7
        monkeypatch.setattr(primes, "MAX_TEST_WORK", len(light) * 7 ** 2)
        assert list(enumerate_supported(filt).moduli()) == [q for q in light if is_prime(q)]
        monkeypatch.setattr(primes, "MAX_TEST_WORK", len(light) * 7 ** 2 - 1)
        with pytest.raises(ParamsError, match=f"more than {len(light) - 1} candidates"):
            enumerate_supported(filt)

    def test_refuses_a_loose_weight_cap_before_testing(self, monkeypatch):
        # 2^19 candidates, all under the cap: a few seconds of Miller-Rabin
        def fail(_):
            raise AssertionError("a candidate was tested")

        monkeypatch.setattr(primes, "is_prime", fail)
        with pytest.raises(ParamsError, match="--hwnaf-max"):
            enumerate_supported(CatalogFilter(n_ring=1 << 27, w=48, hw_naf_max=64,
                                              p_r_max=Fraction(1, 2),
                                              q_min_exclusive=1 << 47))

    def test_test_bound_refuses_when_every_candidate_is_light(self, monkeypatch):
        # all seven candidates 17, 33, ..., 113 are under the weight cap of 7
        filt = CatalogFilter(n_ring=8, w=7, hw_naf_max=7, p_r_max=Fraction(1, 2))
        monkeypatch.setattr(primes, "MAX_TEST_WORK", 7 * 7 ** 2)
        assert list(enumerate_supported(filt).moduli()) == [17, 97, 113]
        monkeypatch.setattr(primes, "MAX_TEST_WORK", 7 * 7 ** 2 - 1)
        with pytest.raises(ParamsError, match="more than 6 candidates"):
            enumerate_supported(filt)

    def test_reference_catalog_tests_no_candidate(self, monkeypatch):
        # below 2^32 the sieve reaches every candidate's square root
        def fail(_):
            raise AssertionError("a candidate was tested")

        monkeypatch.setattr(primes, "is_prime", fail)
        catalog = enumerate_supported(CatalogFilter(
            n_ring=DEFAULT_N, w=DEFAULT_W, hw_naf_max=DEFAULT_HW_NAF_MAX,
            p_r_max=Fraction(1, 2), q_min_exclusive=DEFAULT_Q_MIN_EXCLUSIVE))
        assert len(catalog) == REFERENCE_ROWS[-1][1]

    def test_wide_word_tests_only_weight_capped_survivors(self, monkeypatch):
        # at w = 40 the sieve stops at 2^16, so Miller-Rabin decides its survivors
        tested = []

        def counting(q):
            tested.append(q)
            return is_prime(q)

        w, step, hw_max = 40, 1 << 11, 6
        q_min = (1 << w) - 3000 * step
        sieving = math.prod(p for p in range(3, 1 << 16, 2) if is_prime(p))
        coprime = [q for q in range(q_min + 1, 1 << w, step) if math.gcd(q, sieving) == 1]
        survivors = [q for q in coprime if hw_naf(q) <= hw_max]
        assert len(survivors) < len(coprime)
        monkeypatch.setattr(primes, "is_prime", counting)
        catalog = enumerate_supported(CatalogFilter(
            n_ring=step // 2, w=w, hw_naf_max=hw_max, p_r_max=Fraction(1, 2),
            q_min_exclusive=q_min))
        assert 0 < len(catalog) < len(tested) == len(survivors)
        assert tested == survivors
        assert len(tested) * w ** 2 <= primes.MAX_TEST_WORK

    @pytest.mark.parametrize("log_n", range(4))
    def test_small_filters_match_brute_force(self, log_n):
        # small enough that some candidates are sieving primes, and that
        # isqrt(2^w - 1) is itself a prime whose square is a candidate (w = 5, 7)
        step = 2 << log_n
        for w in range(1, 17):
            filt = CatalogFilter(n_ring=1 << log_n, w=w, hw_naf_max=w + 1,
                                 p_r_max=Fraction(1))
            brute = [q for q in range(step + 1, 1 << w, step) if is_prime(q)]
            assert list(enumerate_supported(filt).moduli()) == brute, w

    @pytest.mark.parametrize("w", [0, 65, 200])
    def test_rejects_word_size_outside_is_prime_range(self, w):
        with pytest.raises(ParamsError):
            CatalogFilter(n_ring=8, w=w, hw_naf_max=7, p_r_max=Fraction(1, 2))

    def test_rejects_a_ring_dimension_that_is_not_a_power_of_two(self):
        with pytest.raises(ParamsError):
            CatalogFilter(n_ring=3, w=7, hw_naf_max=7, p_r_max=Fraction(1, 2))

    @pytest.mark.parametrize("hw_max", [-1, -64])
    def test_rejects_a_negative_weight_cap(self, hw_max):
        # no modulus has a negative NAF weight, so the catalog would always be empty
        with pytest.raises(ParamsError, match="NAF weight cap"):
            CatalogFilter(n_ring=8, w=20, hw_naf_max=hw_max, p_r_max=Fraction(1, 2))
        CatalogFilter(n_ring=8, w=20, hw_naf_max=0, p_r_max=Fraction(1, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 8), st.integers(1, 20), st.integers(0, 8),
           st.fractions(min_value=0, max_value=1))
    def test_weight_first_scan_matches_brute_force(self, data, log_n, w, hw_max, p_r_max):
        q_min = data.draw(st.integers(0, 1 << w))
        step = 2 << log_n
        # the records of the old order: prime, then NAF weight, then p_r
        brute = [PrimeRecord(q, size_bucket(q), weight, p_r)
                 for q in range(step + 1, 1 << w, step) if q > q_min and is_prime(q)
                 if (weight := naf_weight(q)) <= hw_max
                 if (p_r := sample_rejection_prob(q, w)) <= p_r_max]
        filt = CatalogFilter(n_ring=1 << log_n, w=w, hw_naf_max=hw_max, p_r_max=p_r_max,
                             q_min_exclusive=q_min)
        assert list(enumerate_supported(filt).records) == brute

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.integers(0, 12), st.integers(33, 40), st.integers(0, 40),
           st.fractions(min_value=0, max_value=1))
    def test_partial_sieve_matches_brute_force(self, data, log_n, w, hw_max, p_r_max):
        # above 32-bit words the sieve stops at 2^16 and Miller-Rabin decides
        step = 2 << log_n
        q_min = (1 << w) - step * data.draw(st.integers(0, 3000))
        brute = [PrimeRecord(q, size_bucket(q), weight, p_r)
                 for q in range(q_min + 1, 1 << w, step) if is_prime(q)
                 if (weight := naf_weight(q)) <= hw_max
                 if (p_r := sample_rejection_prob(q, w)) <= p_r_max]
        filt = CatalogFilter(n_ring=1 << log_n, w=w, hw_naf_max=hw_max, p_r_max=p_r_max,
                             q_min_exclusive=q_min)
        assert list(enumerate_supported(filt).records) == brute

    def test_restrict_matches_fresh_enumeration(self):
        loose = enumerate_supported(
            CatalogFilter(n_ring=256, w=20, hw_naf_max=5, p_r_max=Fraction(1, 2)))
        tight = enumerate_supported(
            CatalogFilter(n_ring=256, w=20, hw_naf_max=5, p_r_max=Fraction("0.1")))
        assert loose.restrict(Fraction("0.1")).moduli() == tight.moduli()

    def test_restrict_refuses_a_looser_cap(self):
        catalog = enumerate_supported(
            CatalogFilter(n_ring=8, w=7, hw_naf_max=7, p_r_max=Fraction(1, 4)))
        with pytest.raises(ParamsError):
            catalog.restrict(Fraction(1, 2))


class TestHistogram:
    def test_empty(self):
        filt = CatalogFilter(n_ring=1 << 15, w=16, hw_naf_max=1, p_r_max=Fraction(1, 100))
        catalog = enumerate_supported(filt)
        assert len(catalog) == 0 and histogram(catalog) == {}
        with pytest.raises(ParamsError):
            catalog.worst_p_r()

    def test_partition(self):
        filt = CatalogFilter(n_ring=256, w=22, hw_naf_max=6, p_r_max=Fraction(1, 2))
        catalog = enumerate_supported(filt)
        hist = histogram(catalog)
        assert sum(hist.values()) == len(catalog)
        for bucket, count in hist.items():
            assert count == sum(1 for r in catalog if r.bucket == bucket)
