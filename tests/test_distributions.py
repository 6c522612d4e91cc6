import itertools
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
)
from distid import distributions
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


def brute_force_verdict(rows) -> str | None:
    """The distinctness error for rows, from a plain all-pairs loop.

    None when every pair is farther apart than DISTINCT_TOL in sup norm;
    otherwise the message for the lexicographically smallest close pair.
    """
    rows = [[float(x) for x in row] for row in rows]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            gap = max(abs(a - b) for a, b in zip(rows[i], rows[j]))
            if gap <= DISTINCT_TOL:
                return (f"members {i} and {j} are not distinct "
                        f"(sup-norm gap {gap!r} <= {DISTINCT_TOL})")
    return None


def family_verdict(rows) -> str | None:
    try:
        DistributionFamily([FinitePmf(r) for r in rows])
    except ValueError as exc:
        return str(exc)
    return None


def with_close_copies(rng, rows, copies, offsets):
    """rows plus `copies` near-copies of random rows, shuffled together.

    A near-copy moves mass `offset` (drawn from offsets) from one symbol
    to another, so it still sums to 1 and its sup-norm gap is about offset.
    """
    rows = [list(r) for r in rows]
    for _ in range(copies):
        row = list(rows[int(rng.integers(len(rows)))])
        a, b = (int(k) for k in rng.choice(len(row), size=2, replace=False))
        delta = min(float(rng.choice(offsets)), row[b])
        row[a] += delta
        row[b] -= delta
        rows.append(row)
    return [rows[k] for k in rng.permutation(len(rows))]


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

    def test_signed_zero_hashes_like_zero(self):
        a, b = FinitePmf([-0.0, 1.0]), FinitePmf([0.0, 1.0])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert not np.signbit(a.probs).any()


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

    @pytest.mark.parametrize("seed", range(12))
    def test_distinctness_matches_brute_force_on_random_families(self, seed):
        rng = np.random.default_rng(seed)
        size, m = int(rng.integers(2, 60)), int(rng.integers(2, 6))
        w = rng.exponential(1.0, size=(size, m))
        w[rng.random((size, m)) < 0.2] = 0.0
        w[:, -1] += 0.01
        rows = (w / w.sum(axis=1, keepdims=True)).tolist()
        offsets = [0.0, 1e-13, 0.5 * DISTINCT_TOL, DISTINCT_TOL,
                   1.5 * DISTINCT_TOL, 2 * DISTINCT_TOL, 3 * DISTINCT_TOL, 1e-6]
        for copies in (0, 1, 3):
            family = with_close_copies(rng, rows, copies, offsets)
            assert family_verdict(family) == brute_force_verdict(family)

    def test_distinctness_with_many_members_sharing_the_sort_key(self):
        rng = np.random.default_rng(31)
        # each symbol takes 4 values, so every coordinate is shared widely
        perms = [list(p) for p in itertools.permutations([0.1, 0.2, 0.3, 0.4])]
        assert family_verdict(perms) is None
        # all members but one share the coordinate with the widest range, so
        # every pair among them is a candidate
        xs = np.linspace(0.3, 0.5, 150)
        shared = [[0.2, x, 0.8 - x] for x in xs] + [[0.9, 0.05, 0.05]]
        assert family_verdict(shared) is None
        offsets = [0.0, 0.5 * DISTINCT_TOL, DISTINCT_TOL, 2 * DISTINCT_TOL]
        for base in (perms, shared):
            for _ in range(4):
                family = with_close_copies(rng, base, 2, offsets)
                assert family_verdict(family) == brute_force_verdict(family)

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_distinctness_at_the_tolerance(self, step):
        # t, 2t and 2t - t' are exact, so the pair's gap is exactly t' in both
        # of its differing symbols, whichever of them the rows are sorted by
        t = DISTINCT_TOL
        tp = float(np.nextafter(t, math.inf * step)) if step else t
        near = [[0.0, 2 * t, 1.0 - 2 * t], [tp, 2 * t - tp, 1.0 - 2 * t]]
        assert abs(near[1][1] - near[0][1]) == tp
        spread = [[0.6, 0.3, 0.1], [0.1, 0.5, 0.4], [0.3, 0.0, 0.7], [0.05, 0.9, 0.05]]
        want = None if step > 0 else (
            f"members 0 and 1 are not distinct (sup-norm gap {tp!r} <= {DISTINCT_TOL})")
        assert family_verdict(near) == brute_force_verdict(near) == want
        rng = np.random.default_rng(40 + step)
        for _ in range(6):
            family = [(near + spread)[k] for k in rng.permutation(6)]
            assert family_verdict(family) == brute_force_verdict(family)

    def test_distinctness_of_pairs_differing_in_the_last_symbol(self):
        base = [[0.25, 0.25, 0.5], [0.1, 0.2, 0.7], [0.5, 0.1, 0.4]]
        for delta in (1e-13, 5e-13):
            rows = base + [[0.1, 0.2, 0.7 + delta]]
            want = brute_force_verdict(rows)
            assert want is not None and want.startswith("members 1 and 3")
            assert family_verdict(rows) == want
        # mass moved between the last two symbols, around the tolerance
        for delta in (0.5 * DISTINCT_TOL, DISTINCT_TOL, 1.01 * DISTINCT_TOL):
            rows = base + [[0.5, 0.1 + delta, 0.4 - delta]]
            assert family_verdict(rows) == brute_force_verdict(rows)

    def test_distinctness_names_the_smallest_pair_not_the_first_sorted(self):
        d = 0.25 * DISTINCT_TOL
        rows = [[0.9 + d, 0.1 - d], [0.1, 0.9], [0.5, 0.5], [0.1 + d, 0.9 - d],
                [0.9, 0.1], [0.7, 0.3]]
        want = brute_force_verdict(rows)
        assert want.startswith("members 0 and 4 are not distinct")
        assert family_verdict(rows) == want
        # member 1 is close to 3 and to 2, but 2 and 3 are not close; by the
        # widest-ranging symbol the order is 1, 3, 2, so the smallest pair
        # (1, 2) is reached after (1, 3)
        t = DISTINCT_TOL
        triangle = [[0.9, 0.05, 0.05], [0.3, 0.3, 0.4],
                    [0.3 + 0.5 * t, 0.3 - 0.9 * t, 0.4 + 0.4 * t],
                    [0.3, 0.3 + 0.9 * t, 0.4 - 0.9 * t], [0.05, 0.5, 0.45],
                    [0.6, 0.2, 0.2]]
        want = brute_force_verdict(triangle)
        assert want.startswith("members 1 and 2 are not distinct")
        assert family_verdict(triangle) == want
        assert brute_force_verdict([triangle[k] for k in (0, 2, 3)]) is None
        # the same pairs reached in every other order of the members
        rng = np.random.default_rng(50)
        for base in (rows, triangle):
            for _ in range(10):
                family = [base[k] for k in rng.permutation(len(base))]
                assert family_verdict(family) == brute_force_verdict(family)

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

    def test_partial_overlap(self):
        got = bhattacharyya(FinitePmf([1.0, 0.0]), FinitePmf([0.5, 0.5]))
        assert got == pytest.approx(0.5 * math.log(2.0), rel=1e-12)

    def test_divergence_split_identity(self):
        # the tilted midpoint m = sqrt(p q) / sum sqrt(p q) splits the
        # distance: D(m||p) + D(m||q) is twice the Bhattacharyya distance
        rng = philox_stream(24)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            p, q = random_pmf(rng, m), random_pmf(rng, m)
            root = np.sqrt(p.probs * q.probs)
            mid = root / root.sum()
            # mid has full support here, so both divergences are finite
            total = sum(float((mid * np.log(mid / other.probs)).sum())
                        for other in (p, q))
            assert total == pytest.approx(2.0 * bhattacharyya(p, q), abs=1e-10)

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
        for spec in [
            {"kind": "random-simplex", "size": 6, "alphabet": 3, "seed": 4},
            # more than one row block, the last one shorter than the others
            {"kind": "random-simplex", "size": 130, "alphabet": 3, "seed": 5},
            {"kind": "random-simplex", "size": 70, "alphabet": 8, "seed": 6},
            {"kind": "binary-grid", "size": 97, "theta_min": 0.0, "theta_max": 1.0},
            # zero-probability symbols, some pairs with disjoint supports
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5],
             [0.0, 0.4, 0.6], [0.0, 0.0, 1.0], [1 - 1e-6, 0.0, 1e-6]],
        ]:
            fam = make_family(spec)
            dist = distance_matrix(fam)
            for i in range(len(fam)):
                for j in range(len(fam)):
                    expected = 0.0 if i == j else bhattacharyya(fam[i], fam[j])
                    assert dist[i, j] == expected, (spec, i, j)

    @pytest.mark.parametrize("entries", [1, 7, 64, 1000, 2**15, 2**20])
    def test_distance_matrix_is_independent_of_the_block_size(self, monkeypatch,
                                                              entries):
        rng = np.random.default_rng(9)
        w = rng.exponential(1.0, size=(53, 5))
        w[rng.random(w.shape) < 0.35] = 0.0
        w[w.sum(axis=1) == 0, 0] = 1.0
        rows = np.unique(w / w.sum(axis=1, keepdims=True), axis=0)
        fam = make_family(rows[rng.permutation(len(rows))].tolist())
        want = distance_matrix(fam)
        disjoint = np.array([[not (p.probs * q.probs).any() for q in fam] for p in fam])
        assert disjoint.any() and (want[disjoint] == math.inf).all()
        assert np.isfinite(want[~disjoint]).all()
        monkeypatch.setattr(distributions, "_BLOCK_ENTRIES", entries)
        assert distance_matrix(fam).tobytes() == want.tobytes()

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


def symbol_last_block(probs_i, probs_j, masked):
    """The distance kernel on row-major (r, m) and (c, m) pmfs, with its
    symbol sums taken by numpy's own `.sum(axis=2)`: the reference the
    plane sums must match bit for bit."""
    roots_i, roots_j = np.sqrt(probs_i), np.sqrt(probs_j)
    p, root_p = probs_i[:, None, :], roots_i[:, None, :]
    coeff = (roots_j * root_p).sum(axis=2)
    denom = roots_j + root_p
    diff = probs_j - p
    np.divide(diff, denom, out=diff, where=(denom > 0) if masked else True)
    half_sq = 0.5 * (diff * diff).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(coeff < 0.5, -np.log(coeff), -np.log1p(-half_sq))


# Symbol counts on every path of numpy's pairwise summation: left to right
# below 8, eight running sums up to 128, recursive halves above.
PLANE_COUNTS = [*range(2, 21), 64, 127, 128, 129, 130, 200, 300]
BLOCK_SHAPES = [(1, 1), (1, 9), (6, 1), (5, 37)]


class TestPlaneSum:
    @pytest.mark.parametrize("m", PLANE_COUNTS)
    def test_plane_sum_is_numpy_sum_bitwise(self, m):
        rng = np.random.default_rng(m)
        for shape in BLOCK_SHAPES:
            # magnitudes over ten decades, so the order of the additions shows
            x = (rng.exponential(1.0, size=(*shape, m))
                 * 10.0 ** rng.integers(-5, 5, size=(*shape, m)))
            planes = np.moveaxis(x, -1, 0).copy()
            got = distributions._plane_sum(planes)
            assert got.tobytes() == x.sum(axis=-1).tobytes(), shape

    @pytest.mark.parametrize("m", PLANE_COUNTS)
    def test_kernel_matches_the_symbol_last_sums(self, m):
        rng = np.random.default_rng(1000 + m)
        for (r, c), masked in itertools.product(BLOCK_SHAPES, (False, True)):
            w = rng.exponential(1.0, size=(r + c, m))
            if masked:   # zeros, symbols both pmfs miss, and disjoint pairs
                w[rng.random(w.shape) < 0.6] = 0.0
                w[np.arange(r + c), rng.integers(0, m, size=r + c)] = 1.0
            probs = w / w.sum(axis=1, keepdims=True)
            cols_i, cols_j = probs[:r].T.copy(), probs[r:].T.copy()
            got = distributions._bhattacharyya_block(
                cols_i, np.sqrt(cols_i), cols_j, np.sqrt(cols_j), masked)
            want = symbol_last_block(probs[:r], probs[r:], masked)
            assert got.tobytes() == want.tobytes(), ((r, c), masked)



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

    def test_integer_keys_reject_other_values(self):
        # int() would truncate: size 4.7 would build 4 members
        grid = {"kind": "binary-grid", "theta_min": 0.1, "theta_max": 0.9}
        simplex = {"kind": "random-simplex", "size": 3, "alphabet": 3, "seed": 1}
        for spec in [{**grid, "size": 4.7}, {**grid, "size": 4.0},
                     {**grid, "size": True}, {**grid, "size": "4"},
                     {**simplex, "alphabet": 2.9}, {**simplex, "seed": 1.5}]:
            with pytest.raises(ValueError, match="must be an integer"):
                make_family(spec)
        assert len(make_family({**grid, "size": np.int64(4)})) == 4

    @pytest.mark.parametrize("key, value", [
        ("theta_min", "0.1"), ("theta_min", None), ("theta_min", True),
        ("theta_max", "0.9"), ("theta_max", None), ("theta_max", True),
        ("size", None), ("alphabet", None), ("seed", None), ("seed", True),
        ("pmfs", 5), ("pmfs", [5, 6]), ("pmfs", [[0.5, 0.5], None]),
        ("pmfs", [["0.5", "0.5"], [0.9, 0.1]]), ("pmfs", [[True, False], [0.5, 0.5]]),
        ("kind", 3), ("kind", None), ("kind", ["explicit"]),
    ])
    def test_spec_values_of_another_type_name_their_key(self, key, value):
        # a string theta once built a family, and None raised TypeError
        grid = {"kind": "binary-grid", "size": 3, "theta_min": 0.1, "theta_max": 0.9}
        simplex = {"kind": "random-simplex", "size": 3, "alphabet": 3, "seed": 1}
        explicit = {"kind": "explicit", "pmfs": [[0.5, 0.5], [0.9, 0.1]]}
        spec = simplex if key in ("alphabet", "seed") else explicit if key == "pmfs" else grid
        with pytest.raises(ValueError, match=key):
            make_family({**spec, key: value})

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_family([(0.5, 0.5)])


class TestFamilyArray:
    @pytest.mark.parametrize("spec", [
        {"kind": "binary-grid", "size": 50, "theta_min": 0.0, "theta_max": 1.0},
        {"kind": "random-simplex", "size": 300, "alphabet": 8, "seed": 7},
    ])
    def test_generated_families_validate_no_member(self, monkeypatch, spec):
        calls = []
        init = FinitePmf.__init__

        def counting_init(self, probs):
            calls.append(probs)
            init(self, probs)

        monkeypatch.setattr(FinitePmf, "__init__", counting_init)
        fam = make_family(spec)
        members = [fam[i] for i in range(len(fam))] + list(fam)
        assert calls == []
        monkeypatch.undo()
        for i, row in enumerate(fam.prob_matrix()):
            want = FinitePmf(row)
            assert members[i] == want and hash(members[i]) == hash(want)
            assert members[len(fam) + i] == want
            assert not members[i].probs.flags.writeable

    def test_prob_matrix_is_the_stored_read_only_array(self):
        fam = make_family({"kind": "random-simplex", "size": 5, "alphabet": 3, "seed": 2})
        probs = fam.prob_matrix()
        assert probs is fam.prob_matrix()
        assert probs.shape == (5, 3) and not probs.flags.writeable
        with pytest.raises(ValueError):
            probs[0, 0] = 0.5
        assert fam[-1] == FinitePmf(probs[4])
        assert fam[1:3] == (FinitePmf(probs[1]), FinitePmf(probs[2]))
        assert tuple(fam) == tuple(FinitePmf(row) for row in probs)

    def test_signed_zero_rows_become_zero(self):
        fam = make_family([[-0.0, 1.0], [1.0, 0.0]])
        assert not np.signbit(fam.prob_matrix()).any()
        assert fam[0] == FinitePmf([0.0, 1.0])

    @pytest.mark.parametrize("rows, bad_row, match", [
        ([[0.5, 0.5], [float("nan"), 1.0]], 1, "^probs must be finite$"),
        ([[0.5, 0.5], [float("inf"), 0.0]], 1, "^probs must be finite$"),
        ([[0.5, 0.5], [0.9, 0.1], [1.2, -0.2]], 2, "^probs must be nonnegative$"),
        ([[0.5, 0.5], [0.3, 0.3], [0.5, 0.4]], 1,
         r"^probs must sum to 1 within 1e-12, got 0\.6$"),
        ([[0.5, 0.4]], 0, "^probs must sum to 1"),   # a bad row comes before the size
        ([[1.0], [1.0]], 0, "^alphabet size must be >= 2, got 1$"),
    ])
    def test_explicit_rows_keep_the_member_messages(self, rows, bad_row, match):
        with pytest.raises(ValueError, match=match) as want:
            FinitePmf(rows[bad_row])
        for spec in (rows, {"kind": "explicit", "pmfs": rows}):
            with pytest.raises(ValueError) as got:
                make_family(spec)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("rows, match", [
        ([[0.5, 0.5], [0.2, 0.3, 0.5]], "^family members must share one alphabet size$"),
        ([[0.5, 0.5], [0.2, 0.8], [0.5, 0.5]], "^members 0 and 2 are not distinct "),
        ([[0.5, 0.5]], "^family must have at least 2 members, got 1$"),
        ([], "^family must have at least 2 members, got 0$"),
    ])
    def test_explicit_families_keep_the_family_messages(self, rows, match):
        for spec in (rows, {"kind": "explicit", "pmfs": rows}):
            with pytest.raises(ValueError, match=match):
                make_family(spec)
