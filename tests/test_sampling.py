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
