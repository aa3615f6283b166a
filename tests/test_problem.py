import math

import numpy as np
import pytest

from conftest import charpoly_eigen_max, random_valid_problem
from safedual import (
    GeneratorConfig,
    NumProblem,
    ProblemBatch,
    UtilitySpec,
    compute_constants,
    generate_random,
    problem_hash,
    validate,
)
from safedual.problem import (
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)


def make(a, c, thetas, **util_kwargs):
    utilities = tuple(UtilitySpec(theta=t, **util_kwargs) for t in thetas)
    return NumProblem(a, c, utilities)


class TestValidate:
    def test_tiny_is_valid(self, tiny):
        assert validate(tiny) == []

    def test_non_binary_entry(self):
        problem = make([[1, 2]], [1.0], (1.0, 1.0))
        assert "non-binary entry" in validate(problem)

    def test_zero_row(self):
        problem = make([[1, 1], [0, 0]], [1.0, 1.0], (1.0, 1.0))
        assert "zero row" in validate(problem)

    def test_zero_column(self):
        problem = make([[1, 0], [1, 0]], [1.0, 1.0], (1.0, 1.0))
        assert "zero column" in validate(problem)

    def test_non_positive_capacity(self):
        problem = make([[1, 1]], [0.0], (1.0, 1.0))
        assert "non-positive capacity" in validate(problem)

    def test_no_slater_point(self):
        # interior probe 2e-6 already exceeds the capacity
        problem = make([[1, 1]], [1e-9], (1.0, 1.0))
        assert "no slater point" in validate(problem)

    def test_bad_domain(self):
        problem = make([[1]], [1.0], (1.0,), lower=2.0, upper=1.0)
        assert "invalid domain bounds" in validate(problem)


class TestGenerateRandom:
    def test_deterministic_replay(self):
        config = GeneratorConfig(seed=123)
        a, b = generate_random(config), generate_random(config)
        assert np.array_equal(a.a_matrix, b.a_matrix)
        assert np.array_equal(a.capacities, b.capacities)
        assert a.utilities == b.utilities

    @pytest.mark.parametrize("seed", range(20))
    def test_default_ranges_and_validity(self, seed):
        problem = generate_random(GeneratorConfig(seed=seed))
        assert 10 <= problem.n <= 40
        assert 5 <= problem.m <= 25
        assert (problem.a_matrix.sum(axis=0) > 0).all()
        assert (problem.a_matrix.sum(axis=1) > 0).all()
        assert ((10 <= problem.theta) & (problem.theta <= 30)).all()
        assert (problem.capacities == 1.0).all()
        assert (problem.lower == 0.0).all()
        assert np.isinf(problem.upper).all()
        assert validate(problem) == []

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            generate_random(GeneratorConfig(bernoulli_p=0.0))
        with pytest.raises(ValueError):
            generate_random(GeneratorConfig(n_range=(5, 4)))


class TestComputeConstants:
    def test_tiny_values(self, tiny, tiny_constants):
        k = tiny_constants
        assert k.mu == pytest.approx(1 / 1.21, rel=1e-12)
        assert k.spectral == pytest.approx(2.0, rel=1e-9)
        assert k.lambda_bar == pytest.approx(10.0, rel=1e-12)
        assert np.array_equal(k.row_weights, [2])

    def test_row_weights_example(self):
        problem = make([[1, 1], [1, 0]], [1.0, 1.0], (1.0, 1.0))
        k = compute_constants(problem)
        assert np.array_equal(k.row_weights, [3, 2])

    def test_smoothness_identity(self, tiny_constants):
        k = tiny_constants
        assert k.dual_smoothness * k.mu == pytest.approx(k.spectral, rel=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_mu_is_minimum_curvature(self, seed):
        problem = generate_random(GeneratorConfig(seed=seed))
        k = compute_constants(problem)
        c_max = problem.capacities.max()
        bounds = problem.theta / (c_max + problem.shift) ** 2
        assert (k.mu <= bounds + 1e-15).all()
        assert k.mu == pytest.approx(bounds.min(), rel=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_row_weights_against_triple_loop(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 9), rng.integers(2, 9)
        a = rng.integers(0, 2, size=(m, n))
        a[:, 0] = 1
        a[0, :] = 1
        problem = make(a, np.ones(m), np.ones(n))
        k = compute_constants(problem)
        gram = a @ a.T
        expected = [sum(int(gram[j, l]) for l in range(m)) for j in range(m)]
        assert list(k.row_weights) == expected


class TestSpectralRadius:
    """compute_constants' radius against the eigen-solver-free oracle on A^T A."""

    @staticmethod
    def check(a):
        problem = make(a, np.ones(a.shape[0]), np.ones(a.shape[1]))
        expected = charpoly_eigen_max(a.T @ a)
        assert compute_constants(problem).spectral == pytest.approx(expected, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_against_charpoly_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 7, size=2)
        self.check(rng.integers(0, 2, size=(m, n)))

    @pytest.mark.parametrize("seed", range(8))
    def test_binary_gram_matrices(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.integers(0, 2, size=(4, 4))
        a[0] = 1
        self.check(a)


class TestSerialization:
    def test_round_trip_infinite_upper(self, tiny):
        doc = problem_to_dict(tiny)
        back = problem_from_dict(doc)
        assert np.array_equal(back.a_matrix, tiny.a_matrix)
        assert np.array_equal(back.capacities, tiny.capacities)
        assert back.utilities == tiny.utilities

    def test_round_trip_mixed_bounds(self):
        utilities = (
            UtilitySpec(2.0, shift=0.3, lower=0.5, upper=4.0),
            UtilitySpec(1.0, shift=0.1, lower=0.0, upper=math.inf),
        )
        problem = NumProblem([[1, 1]], [2.0], utilities, seed=9)
        back = problem_from_dict(problem_to_dict(problem))
        assert back.utilities == problem.utilities
        assert back.seed == 9

    def test_file_round_trip(self, tmp_path, tiny):
        path = tmp_path / "problem.json"
        save_problem(tiny, path)
        back = load_problem(path)
        assert np.array_equal(back.a_matrix, tiny.a_matrix)
        assert back.utilities == tiny.utilities

    def test_hash_ignores_seed(self, tiny):
        other = NumProblem(tiny.a_matrix, tiny.capacities, tiny.utilities, seed=77)
        assert problem_hash(other) == problem_hash(tiny)

    def test_hash_sensitive_to_content(self, tiny):
        other = NumProblem(tiny.a_matrix, [2.0], tiny.utilities)
        assert problem_hash(other) != problem_hash(tiny)


class TestProblemBatch:
    @pytest.fixture
    def problems(self):
        return [random_valid_problem(seed) for seed in (3, 4, 5)]

    def test_products_match_the_block_diagonal_matrix(self, problems):
        batch = ProblemBatch(problems)
        dense = np.zeros((batch.m, batch.n))
        for k, p in enumerate(problems):
            rows = slice(batch.row_start[k], batch.row_start[k + 1])
            users = slice(batch.user_start[k], batch.user_start[k + 1])
            dense[rows, users] = p.a_matrix
        rng = np.random.default_rng(0)
        x, lam = rng.random(batch.n), rng.random(batch.m)
        assert np.allclose(batch.a_matrix @ x, dense @ x, rtol=1e-14, atol=0.0)
        assert np.allclose(batch.a_matrix.T @ lam, dense.T @ lam, rtol=1e-14, atol=0.0)
        assert np.array_equal(batch.capacities, np.concatenate([p.capacities for p in problems]))
        m_sizes = [p.m for p in problems]
        assert np.array_equal(batch.row_m, np.repeat(m_sizes, m_sizes))

    def test_each_trial_gets_the_numbers_it_gets_alone(self, problems):
        batch = ProblemBatch(problems)
        rng = np.random.default_rng(1)
        x, lam = rng.random(batch.n), rng.random(batch.m)
        loads, prices = batch.a_matrix @ x, batch.a_matrix.T @ lam
        objective = batch.user_sums(np.log(x + batch.shift))
        for k, p in enumerate(problems):
            rows = slice(batch.row_start[k], batch.row_start[k + 1])
            users = slice(batch.user_start[k], batch.user_start[k + 1])
            alone = ProblemBatch([p])
            assert np.array_equal(loads[rows], alone.a_matrix @ x[users])
            assert np.array_equal(prices[users], alone.a_matrix.T @ lam[rows])
            assert objective[k] == alone.user_sums(np.log(x[users] + p.shift))[0]
            assert batch.row_max(lam)[k] == lam[rows].max()
            assert batch.row_min(lam)[k] == lam[rows].min()

    def test_locate_user(self, problems):
        batch = ProblemBatch(problems)
        first, second = problems[0].n, problems[1].n
        assert batch.locate_user(0) == (0, 0)
        assert batch.locate_user(first - 1) == (0, first - 1)
        assert batch.locate_user(first) == (1, 0)
        assert batch.locate_user(first + second + 2) == (2, 2)
