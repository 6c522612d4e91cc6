import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from distid import (
    DistributionFamily,
    FinitePmf,
    bhattacharyya,
    make_family,
    tilted_midpoint,
)
from distid.distributions import DISTINCT_TOL, distance_matrix, philox_stream


def random_pmf(rng, m):
    w = rng.exponential(1.0, size=m)
    return FinitePmf(w / w.sum())


def decimal_bhattacharyya(p: FinitePmf, q: FinitePmf) -> float:
    """-ln sum sqrt(p q) in 60-digit decimal arithmetic on the stored doubles."""
    with localcontext() as ctx:
        ctx.prec = 60
        coeff = sum((Decimal(float(a)) * Decimal(float(b))).sqrt()
                    for a, b in zip(p.probs, q.probs))
        return float(-coeff.ln())


def close_pair(delta: float) -> tuple[FinitePmf, FinitePmf]:
    """(1/2, 1/2) and (1/2 + delta, 1/2 - delta).

    The second entry is 1 - x, which is exact for x in [1/2, 1], so both
    pmfs sum to exactly 1 and -ln BC is the distance of the stored values.
    """
    x = 0.5 + delta
    return FinitePmf([0.5, 0.5]), FinitePmf([x, 1.0 - x])


class TestFinitePmf:
    def test_basic(self):
        p = FinitePmf([0.5, 0.5])
        assert p.alphabet_size == 2
        assert p == FinitePmf([0.5, 0.5])

    def test_immutable(self):
        p = FinitePmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.3

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FinitePmf([1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FinitePmf([0.5, 0.4])

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(ValueError, match="alphabet"):
            FinitePmf([1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            FinitePmf([float("nan"), 1.0])

    def test_support(self):
        assert FinitePmf([0.5, 0.0, 0.5]).support().tolist() == [0, 2]


class TestDistributionFamily:
    def test_rejects_single_member(self):
        with pytest.raises(ValueError, match="at least 2"):
            DistributionFamily([FinitePmf([0.5, 0.5])])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="not distinct"):
            DistributionFamily([FinitePmf([0.5, 0.5]), FinitePmf([0.5, 0.5])])

    def test_rejects_near_duplicates(self):
        eps = 1e-10  # below the 1e-9 distinctness tolerance
        with pytest.raises(ValueError, match="not distinct"):
            DistributionFamily([FinitePmf([0.5, 0.5]),
                                FinitePmf([0.5 + eps, 0.5 - eps])])

    def test_error_names_first_duplicate_pair(self):
        rows = [[0.5, 0.5], [0.1, 0.9], [0.2, 0.8], [0.1, 0.9], [0.2, 0.8]]
        with pytest.raises(ValueError, match="members 1 and 3 are not distinct"):
            DistributionFamily([FinitePmf(r) for r in rows])

    def test_rejects_mixed_alphabets(self):
        with pytest.raises(ValueError, match="alphabet"):
            DistributionFamily([FinitePmf([0.5, 0.5]),
                                FinitePmf([0.2, 0.3, 0.5])])

    def test_members_have_positive_distance(self):
        fam = make_family({"kind": "random-simplex", "size": 5,
                           "alphabet": 4, "seed": 12})
        for i in range(5):
            for j in range(i + 1, 5):
                assert bhattacharyya(fam[i], fam[j]) > 0.0


class TestBhattacharyya:
    def test_self_distance_zero(self):
        p = FinitePmf([0.3, 0.7])
        assert bhattacharyya(p, p) == 0.0

    def test_disjoint_supports_infinite(self):
        assert bhattacharyya(FinitePmf([1.0, 0.0]), FinitePmf([0.0, 1.0])) == math.inf

    def test_half_vs_ninety_ten(self):
        got = bhattacharyya(FinitePmf([0.5, 0.5]), FinitePmf([0.9, 0.1]))
        assert got == pytest.approx(0.5 * math.log(5.0 / 4.0), rel=1e-12)

    def test_symmetry_exact(self):
        rng = philox_stream(21)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            p, q = random_pmf(rng, m), random_pmf(rng, m)
            assert bhattacharyya(p, q) == bhattacharyya(q, p)

    def test_nonnegative(self):
        rng = philox_stream(22)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            assert bhattacharyya(random_pmf(rng, m), random_pmf(rng, m)) >= 0.0

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            bhattacharyya(FinitePmf([0.5, 0.5]), FinitePmf([0.2, 0.3, 0.5]))

    def test_distance_matrix_matches_scalar(self):
        fam = make_family({"kind": "random-simplex", "size": 6,
                           "alphabet": 3, "seed": 4})
        dist = distance_matrix(fam)
        for i in range(6):
            for j in range(6):
                expected = 0.0 if i == j else bhattacharyya(fam[i], fam[j])
                assert dist[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("delta", [1e-5, 1e-7, 1e-8, 2e-9])
    def test_close_pairs_keep_relative_accuracy(self, delta):
        p, q = close_pair(delta)
        want = decimal_bhattacharyya(p, q)
        assert want > 0.0
        dist = distance_matrix(DistributionFamily([p, q]))
        for got in (bhattacharyya(p, q), dist[0, 1], dist[1, 0]):
            assert abs(got - want) <= 1e-6 * want

    @pytest.mark.parametrize("p, q", [
        ([1 - 1e-12, 1e-12], [1e-12, 1 - 1e-12]),
        ([1.0, 1e-300], [1e-300, 1.0]),
        ([0.6, 0.4, 0.0], [0.0, 1e-10, 1 - 1e-10]),
        ([0.25, 0.25, 0.5 - 1e-14, 1e-14], [1e-14, 1e-14, 0.0, 1 - 2e-14]),
    ])
    def test_near_disjoint_pairs_keep_relative_accuracy(self, p, q):
        p, q = FinitePmf(p), FinitePmf(q)
        want = decimal_bhattacharyya(p, q)
        dist = distance_matrix(DistributionFamily([p, q]))
        for got in (bhattacharyya(p, q), dist[0, 1], dist[1, 0]):
            assert abs(got - want) <= 1e-12 * want

    def test_gap_just_above_distinct_tol_is_positive(self):
        p, q = close_pair(1.5 * DISTINCT_TOL)
        dist = distance_matrix(DistributionFamily([p, q]))
        assert bhattacharyya(p, q) > 0.0
        assert dist[0, 1] > 0.0 and dist[1, 0] > 0.0

    def test_distance_matrix_exact_properties(self):
        fam = make_family([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0],
                           [0.2, 0.3, 0.5], [0.0, 0.4, 0.6]])
        dist = distance_matrix(fam)
        assert (np.diag(dist) == 0.0).all() and not np.signbit(dist).any()
        assert (dist == dist.T).all()
        assert dist[0, 1] == math.inf and dist[0, 4] == math.inf
        assert np.isfinite(dist[2:, 2:]).all() and np.isfinite(dist[0, 2:4]).all()
        big = distance_matrix(make_family({"kind": "random-simplex", "size": 200,
                                           "alphabet": 5, "seed": 8}))
        assert (np.diag(big) == 0.0).all() and (big == big.T).all()
        assert (big[~np.eye(200, dtype=bool)] > 0.0).all()

    def test_distance_matrix_memory_is_one_output_array(self):
        fam = make_family({"kind": "random-simplex", "size": 1000,
                           "alphabet": 8, "seed": 7})
        tracemalloc.start()
        try:
            distance_matrix(fam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 1000 * 1000 * 8


class TestTiltedMidpoint:
    def test_self_midpoint(self):
        p = FinitePmf([0.3, 0.7])
        assert tilted_midpoint(p, p) == p

    def test_half_vs_ninety_ten(self):
        mid = tilted_midpoint(FinitePmf([0.5, 0.5]), FinitePmf([0.9, 0.1]))
        np.testing.assert_allclose(mid.probs, [0.75, 0.25], rtol=1e-12)

    def test_partial_overlap(self):
        mid = tilted_midpoint(FinitePmf([1.0, 0.0]), FinitePmf([0.5, 0.5]))
        np.testing.assert_allclose(mid.probs, [1.0, 0.0], atol=0)

    def test_disjoint_supports_error(self):
        with pytest.raises(ValueError, match="disjoint"):
            tilted_midpoint(FinitePmf([1.0, 0.0]), FinitePmf([0.0, 1.0]))

    def test_support_is_intersection(self):
        p = FinitePmf([0.5, 0.5, 0.0])
        q = FinitePmf([0.0, 0.5, 0.5])
        assert tilted_midpoint(p, q).support().tolist() == [1]

    def test_normalized(self):
        rng = philox_stream(23)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            mid = tilted_midpoint(random_pmf(rng, m), random_pmf(rng, m))
            assert abs(float(mid.probs.sum()) - 1.0) <= 1e-12

    def test_divergence_split_identity(self):
        # D(mid||p) + D(mid||q) equals twice the Bhattacharyya distance
        rng = philox_stream(24)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            p, q = random_pmf(rng, m), random_pmf(rng, m)
            mid = tilted_midpoint(p, q)
            # mid has full support here, so both divergences are finite
            total = sum(float((mid.probs * np.log(mid.probs / other.probs)).sum())
                        for other in (p, q))
            assert total == pytest.approx(2.0 * bhattacharyya(p, q), abs=1e-10)


class TestSampling:
    def test_deterministic(self):
        # every draw comes from a stream that is a pure function of
        # (seed, stream index)
        a = philox_stream(7, 3).random(1000)
        assert np.array_equal(a, philox_stream(7, 3).random(1000))
        assert not np.array_equal(a, philox_stream(8, 3).random(1000))
        assert not np.array_equal(a, philox_stream(7, 4).random(1000))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            philox_stream(-1)
        with pytest.raises(ValueError, match="seed"):
            philox_stream(2**64)
        with pytest.raises(ValueError, match="stream"):
            philox_stream(1, 2**64)


class TestMakeFamily:
    def test_explicit(self):
        fam = make_family([(0.5, 0.5), (0.9, 0.1)])
        assert len(fam) == 2

    def test_explicit_spec_dict(self):
        fam = make_family({"kind": "explicit", "pmfs": [[0.5, 0.5], [0.9, 0.1]]})
        assert len(fam) == 2

    def test_binary_grid_spacing(self):
        fam = make_family({"kind": "binary-grid", "size": 3,
                           "theta_min": 0.2, "theta_max": 0.8})
        got = [tuple(p.probs) for p in fam]
        np.testing.assert_allclose(got, [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)],
                                   rtol=1e-15)

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError, match="not distinct"):
            make_family([(0.5, 0.5), (0.5, 0.5)])

    def test_invalid_grid_bounds(self):
        with pytest.raises(ValueError, match="theta"):
            make_family({"kind": "binary-grid", "size": 3,
                         "theta_min": 0.8, "theta_max": 0.2})

    def test_random_simplex_deterministic(self):
        spec = {"kind": "random-simplex", "size": 4, "alphabet": 5, "seed": 77}
        assert make_family(spec) == make_family(spec)
        other = make_family({**spec, "seed": 78})
        assert make_family(spec) != other

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_family({"kind": "mystery"})

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            make_family({"kind": "binary-grid", "size": 3, "theta_min": 0.1,
                         "theta_max": 0.9, "spacing": 0.1})
        # keys of another kind are unknown too
        with pytest.raises(ValueError, match="unknown"):
            make_family({"kind": "explicit", "pmfs": [[0.5, 0.5], [0.9, 0.1]],
                         "size": 7, "theta_min": 0.3})

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_family([(0.5, 0.5)])
