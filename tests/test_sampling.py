import time

import numpy as np
import pytest

from szego import sampling
from szego.cli import main
from szego.errors import NumericalError


def test_exhausted_rejection_sampling_is_typed(monkeypatch):
    # lambda_min >= 1.5 lambda_max is impossible, so every draw is rejected
    monkeypatch.setattr(sampling, "_MAX_TRIES", 3)
    with pytest.raises(NumericalError, match="rejection sampling failed"):
        sampling.random_generic(2, np.random.default_rng(0), lam_ratio=1.5)


def test_roundtrip_exits_3_when_sampling_fails(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sampling, "_MAX_TRIES", 0)
    code = main(["roundtrip", "--n", "2", "--count", "1", "--seed", "7",
                 "--out", str(tmp_path / "run")])
    assert code == 3
    assert "rejection sampling failed" in capsys.readouterr().err


def test_unexpected_errors_propagate(monkeypatch):
    # only the typed spectral failures reject a draw; a bug surfaces at once
    calls = []

    def broken(u):
        calls.append(u)
        raise TypeError("broken decomposition")

    monkeypatch.setattr(sampling, "eigendecompose", broken)
    with pytest.raises(TypeError, match="broken decomposition"):
        sampling.random_generic(2, np.random.default_rng(0))
    assert len(calls) == 1


def _uncapped_random_symbol(n, rng, min_sep=0.5):
    """The sampler without its cap: the draws a capped success must repeat."""
    while True:
        poles = [complex(rng.uniform(-1.5, 1.5), -rng.uniform(0.5, 1.6))
                 for _ in range(n)]
        if any(abs(poles[i] - poles[j]) < min_sep
               for i in range(n) for j in range(i + 1, n)):
            continue
        coeffs = [complex(rng.normal(), rng.normal()) for _ in range(n)]
        if any(abs(c) < 0.2 for c in coeffs):
            continue
        return poles, coeffs


@pytest.mark.parametrize("n", (1, 3, 6))
def test_random_symbol_draws_unchanged_by_the_cap(n):
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        u = sampling.random_symbol(n, rng)
        poles, coeffs = _uncapped_random_symbol(n, ref)
        assert {t.pole: t.coeffs[0] for t in u.terms} == dict(zip(poles, coeffs))
        assert rng.uniform() == ref.uniform()


def test_random_symbol_impossible_separation_is_typed():
    # eight poles 10 apart cannot fit in the 3 x 1.1 sampling box
    t0 = time.monotonic()
    with pytest.raises(NumericalError, match="rejection sampling failed"):
        sampling.random_symbol(8, np.random.default_rng(0), min_sep=10.0)
    assert time.monotonic() - t0 < 5.0
