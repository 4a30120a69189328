import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protofed.numerics import STREAM_DATA, keyed_rng, sample_beta
from protofed.prototypes import PrototypeSet, reweight

from oracles import cosine_similarity

finite_vec = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=16
)


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        assert cosine_similarity([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_hand_case(self):
        # 24 / 25 against a naive dot/norm oracle
        u, v = np.array([3.0, 4.0]), np.array([4.0, 3.0])
        naive = sum(a * b for a, b in zip(u, v)) / (
            math.sqrt(sum(a * a for a in u)) * math.sqrt(sum(b * b for b in v))
        )
        got = cosine_similarity(u, v)
        assert got == pytest.approx(0.96, abs=1e-12)
        assert got == pytest.approx(naive, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1, 2], [1, 2, 3])

    def test_zero_vector_floor(self):
        assert np.isfinite(cosine_similarity([0, 0], [1, 0]))

    @given(finite_vec)
    @settings(max_examples=60)
    def test_self_similarity_and_symmetry(self, values):
        u = np.array(values)
        if np.linalg.norm(u) > 1e-6:
            assert cosine_similarity(u, u) == pytest.approx(1.0, abs=1e-12)
        v = u[::-1].copy()
        assert cosine_similarity(u, v) == pytest.approx(cosine_similarity(v, u), abs=0)

    @given(finite_vec, st.floats(min_value=0.01, max_value=1000))
    @settings(max_examples=60)
    def test_positive_scale_invariance(self, values, scale):
        u = np.array(values)
        v = u[::-1].copy() + 1.0
        if np.linalg.norm(u) < 1e-6:
            return
        assert cosine_similarity(scale * u, v) == pytest.approx(
            cosine_similarity(u, v), abs=1e-12
        )


def one_class(vec) -> PrototypeSet:
    return PrototypeSet(np.array([vec], dtype=np.float64), np.array([1]))


def reweight_distance(u, v) -> float:
    """The squared L2 distance reweight() measures from a client's prototype
    u to the class mean: the clients are u and 2v - u, whose mean is v
    whenever 2v - u is exact."""
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    _, report = reweight([one_class(u), one_class(2 * v - u)])
    return report.per_class[0].distances[0]


class TestSqL2Distance:
    def test_zero_on_equal(self):
        u = np.array([1.5, -2.0, 7.0])
        assert reweight_distance(u, u) == 0.0

    def test_three_four_five(self):
        assert reweight_distance([0, 0], [3, 4]) == pytest.approx(25.0, abs=0)

    def test_ones(self):
        assert reweight_distance([1, 1, 1], [2, 2, 2]) == pytest.approx(3.0, abs=1e-12)

    def test_componentwise_oracle(self):
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=8), rng.normal(size=8)
        naive = sum((a - b) ** 2 for a, b in zip(u, v))
        assert reweight_distance(u, v) == pytest.approx(naive, rel=1e-12)

    @given(finite_vec)
    @settings(max_examples=60)
    def test_symmetry_nonnegativity(self, values):
        u = np.array(values)
        v = u[::-1].copy()
        assert reweight_distance(u, v) >= 0.0
        # two clients: swapping them swaps their distances from the mean
        uv = reweight([one_class(u), one_class(v)])[1].per_class[0].distances
        vu = reweight([one_class(v), one_class(u)])[1].per_class[0].distances
        assert np.all(uv >= 0.0)
        assert uv.tolist() == vu[::-1].tolist()


class TestRng:
    def test_same_key_same_sequence(self):
        a, b = keyed_rng(42, 3), keyed_rng(42, 3)
        assert np.array_equal(a.standard_normal(10), b.standard_normal(10))
        assert np.array_equal(a.permutation(20), b.permutation(20))
        assert a.uniform() == b.uniform()

    def test_streams_differ(self):
        a, b = keyed_rng(42, 0), keyed_rng(42, 1)
        assert not np.array_equal(a.standard_normal(10), b.standard_normal(10))

    def test_seeds_differ(self):
        a, b = keyed_rng(1, 0), keyed_rng(2, 0)
        assert not np.array_equal(a.standard_normal(10), b.standard_normal(10))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            keyed_rng(-1, 0)

    def test_golden_draws(self):
        # pins the (seed, stream) -> Philox key mapping: every artifact
        # depends on it, and a different keying (via SeedSequence, say)
        # would pass the tests above
        want = {
            0: ([0.15929546600623282, -1.7741885208017214, 1.3265118818830892],
                [0, 5, 1, 2, 3, 4], [74, 94, 40, 98]),
            STREAM_DATA: ([0.7803922565150754, -0.22492372709467987, 1.1175875059932296],
                          [4, 3, 0, 5, 2, 1], [16, 50, 34, 6]),
        }
        for stream, (normals, perm, ints) in want.items():
            rng = keyed_rng(0, stream)
            assert rng.standard_normal(3).tolist() == normals
            assert rng.permutation(6).tolist() == perm
            assert rng.integers(100, size=4).tolist() == ints


class TestSampleBeta:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            sample_beta(keyed_rng(0), 0.0)
        with pytest.raises(ValueError):
            sample_beta(keyed_rng(0), -1.0)

    def test_open_interval(self):
        rng = keyed_rng(11, 0)
        draws = [sample_beta(rng, 0.05) for _ in range(2000)]
        assert all(0.0 < d < 1.0 for d in draws)

    def test_deterministic_sequences(self):
        a, b = keyed_rng(9, 4), keyed_rng(9, 4)
        seq_a = [sample_beta(a, 0.4) for _ in range(100)]
        seq_b = [sample_beta(b, 0.4) for _ in range(100)]
        assert seq_a == seq_b

    def test_mean_of_symmetric_beta(self, beta_draws):
        draws = beta_draws(0.4)
        assert abs(draws.mean() - 0.5) < 0.002

    def test_variance_matches_closed_form(self, beta_draws):
        # var Beta(a, a) = a^2 / ((2a)^2 (2a + 1)) = 1 / (4 (2a + 1))
        draws = beta_draws(0.4)
        expected = 1.0 / (4.0 * (2 * 0.4 + 1.0))
        assert abs(draws.var() - expected) < 0.002

    def test_decile_cdf(self, beta_draws):
        from scipy.special import betaincinv

        for alpha in (0.4, 2.0):
            draws = np.sort(beta_draws(alpha))
            for p in np.arange(0.1, 0.95, 0.1):
                x_p = betaincinv(alpha, alpha, p)
                ecdf = np.searchsorted(draws, x_p, side="right") / draws.size
                assert abs(ecdf - p) < 0.005, (alpha, p, ecdf)
