import numpy as np
import pytest

from causal_sphhn import linalg
from causal_sphhn.errors import ContractViolation, RankDeficient


class TestLeastSquares:
    def test_identity_system(self):
        x = linalg.least_squares(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_overdetermined_mean(self):
        x = linalg.least_squares([[1.0], [1.0]], [1.0, 3.0])
        assert np.allclose(x, [2.0], atol=1e-12)

    def test_residual_orthogonality_on_random_systems(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((50, 4))
            b = rng.standard_normal(50)
            x = linalg.least_squares(a, b)
            resid = a.T @ (a @ x - b)
            bound = 1e-8 * np.linalg.norm(a) * np.linalg.norm(b)
            assert np.max(np.abs(resid)) <= bound

    def test_rank_deficient_raises(self):
        a = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(RankDeficient):
            linalg.least_squares(a, np.arange(10.0))

    def test_underdetermined_rejected(self):
        with pytest.raises(ContractViolation):
            linalg.least_squares(np.ones((2, 3)), [1.0, 2.0])
