import pytest

from causal_sphhn import training


@pytest.fixture
def perturbed_gradients(monkeypatch):
    """Adds 1e-2 to every analytic ``proj_w`` gradient: a negative control
    for ``gradient_check``, which must then fail."""
    exact = training.gradients

    def perturbed(*args, **kwargs):
        grads, rest = exact(*args, **kwargs)
        grads["proj_w"] = grads["proj_w"] + 1e-2
        return grads, rest

    monkeypatch.setattr(training, "gradients", perturbed)
