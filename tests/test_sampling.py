import functools
import math
import time

import numpy as np
import pytest

from szego import hankel, sampling
from szego.cli import main
from szego.errors import InputError, NumericalError, PreconditionError
from szego.hankel import eigendecompose
from szego.rational import as_hardy, hardy_from_terms


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


@pytest.mark.parametrize("n", range(1, 9))
def test_random_symbol_draws_unchanged_by_the_cap(n):
    # wider than the default below n = 5, so that pole placements are rejected there too
    min_sep = 0.8 if n < 5 else 0.5
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        layout, p, c = sampling.random_symbol(n, rng, min_sep)._flat
        pairs = sorted(zip(*_uncapped_random_symbol(n, ref, min_sep)),
                       key=lambda pc: (pc[0].real, pc[0].imag))
        assert layout == (0,) * n
        assert p.tolist() == [q for q, _ in pairs] and c.tolist() == [d for _, d in pairs]
        assert rng.bit_generator.state == ref.bit_generator.state


def test_random_symbol_impossible_separation_is_typed():
    # eight poles 10 apart cannot fit in the 3 x 1.1 sampling box
    t0 = time.monotonic()
    with pytest.raises(NumericalError, match="rejection sampling failed"):
        sampling.random_symbol(8, np.random.default_rng(0), min_sep=10.0)
    assert time.monotonic() - t0 < 5.0


def _reference_conditioned(n, rng, want, lam_ratio, scale_to):
    """The sampler's rule with every draw decomposed in full, then tested,
    on the scalar-call draws of `_uncapped_random_symbol`."""
    for _ in range(sampling._MAX_TRIES):
        u = _symbol(zip(*_uncapped_random_symbol(n, rng)))
        try:
            dec = eigendecompose(u)
        except (NumericalError, PreconditionError, np.linalg.LinAlgError):
            continue
        if want == "generic" and dec.genericity == "non_generic":
            continue
        if want == "strongly_generic" and dec.genericity != "strongly_generic":
            continue
        if dec.lambdas[0] < lam_ratio * dec.lambdas[-1]:
            continue
        if want == "strongly_generic":
            speeds = np.sort(dec.lambdas**2 * dec.nus**2)
            if np.min(np.diff(speeds)) < 0.05 * speeds[-1]:
                continue
        if scale_to is not None:
            u = as_hardy((scale_to / dec.lambdas[-1]) * u)
        return u
    raise NumericalError("rejection sampling failed; loosen the constraints")


def _symbol(pairs):
    """The symbol of (pole, coefficient) pairs, as the sampler builds it."""
    return hardy_from_terms([(p, [c]) for p, c in pairs])


def _pairs(u):
    """The (pole, coefficient) pairs of a symbol with simple poles, as `_draw` gives them."""
    return [(t.pole, t.coeffs[0]) for t in u.terms]


# two poles 1e-6 apart: the Gram matrix of the range basis is singular to working precision
ILL_CONDITIONED = [(-1j, 1.0 + 0j), (-1j + 1e-6, 1.0 + 0j)]


def _same_draw(u, v):
    return [(t.pole, t.coeffs) for t in u.terms] == [(t.pole, t.coeffs) for t in v.terms]


def _cli_stream(seed):
    """`szego roundtrip --n 3 --count 1 --seed <seed>`: coordinates, then a symbol."""
    return np.random.default_rng(seed), [(sampling.random_coords, 3),
                                         ("generic", 3)]


def _criterion_7_stream():
    """The acceptance suite's seed-107 stream: 50 coordinates, then 50 symbols."""
    return np.random.default_rng(107), (
        [(sampling.random_coords, 1 + k % 4) for k in range(50)]
        + [("generic", 1 + k % 4) for k in range(50)])


def _strong_stream(n, seed):
    return np.random.default_rng(seed), [("strongly_generic", n)]


STREAMS = ([pytest.param(_cli_stream, (seed,), id=f"cli-{seed}") for seed in range(64)]
           + [pytest.param(_criterion_7_stream, (), id="criterion-7")]
           + [pytest.param(_strong_stream, (n, seed), id=f"strong-{n}-{seed}")
              for n in (2, 3) for seed in range(10)])


LAM_RATIOS = {"generic": 0.05, "strongly_generic": 0.2}


@functools.cache
def _reference_stream(stream, args):
    """Each step's accepted symbol (None for coordinates) and the generator
    state after it, by the full-decomposition rule; shared by the block sizes."""
    ref, steps = stream(*args)
    out = []
    for draw, n in steps:
        u = None
        if draw in LAM_RATIOS:
            u = _reference_conditioned(n, ref, draw, LAM_RATIOS[draw], 0.8)
        else:
            draw(n, ref)
        out.append((u, ref.bit_generator.state))
    return out


def _check_stream(stream, args):
    rng, steps = stream(*args)
    samplers = {"generic": sampling.random_generic,
                "strongly_generic": sampling.random_strongly_generic}
    for (draw, n), (want_u, want_state) in zip(steps, _reference_stream(stream, args)):
        if draw in samplers:
            assert _same_draw(samplers[draw](n, rng), want_u)
        else:
            draw(n, rng)
        assert rng.bit_generator.state == want_state


@pytest.mark.parametrize("stream, args", STREAMS)
def test_accepted_draws_and_rng_states_match_full_decomposition(stream, args):
    _check_stream(stream, args)


# block size 1 is the sequential loop; 3 puts block edges elsewhere in the stream
@pytest.mark.parametrize("block", (1, 3))
@pytest.mark.parametrize("stream, args", STREAMS)
def test_accepted_draws_and_rng_states_match_at_block_size(monkeypatch, stream, args, block):
    monkeypatch.setattr(sampling, "_BLOCK", block)
    _check_stream(stream, args)


@pytest.fixture
def decomposed(monkeypatch):
    """The symbols the sampler passes to `eigendecompose`, in call order."""
    calls = []

    def counting(u, *a, **kw):
        calls.append(u)
        return eigendecompose(u, *a, **kw)

    monkeypatch.setattr(sampling, "eigendecompose", counting)
    return calls


def test_one_decomposition_per_accepted_draw(decomposed):
    for seed in range(8):
        rng = np.random.default_rng(seed)
        sampling.random_generic(3, rng)
        sampling.random_strongly_generic(2, rng)
        assert len(decomposed) == 2 * (seed + 1)


def test_unscaled_draw_is_the_raw_symbol(decomposed):
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        u = sampling.random_generic(3, rng, scale_to=None)
        assert u is decomposed[-1]
        assert _same_draw(u, _reference_conditioned(3, ref, "generic", 0.05, None))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_unexpected_errors_in_the_lambda_step_propagate(monkeypatch):
    def broken(u):
        raise TypeError("broken range basis")

    monkeypatch.setattr(hankel, "_range_basis", broken)
    with pytest.raises(TypeError, match="broken range basis"):
        sampling.random_generic(2, np.random.default_rng(0))


def test_ill_conditioned_draw_is_rejected_by_the_lambda_step(monkeypatch, decomposed):
    # the draw must be skipped, not raised
    with pytest.raises(NumericalError, match="ill-conditioned range basis"):
        hankel._range_basis(_symbol(ILL_CONDITIONED))
    real_draw = sampling._draw
    queue = [ILL_CONDITIONED]

    def with_bad_first(n, rng, min_sep=0.5):
        return queue.pop() if queue else real_draw(n, rng, min_sep)

    monkeypatch.setattr(sampling, "_draw", with_bad_first)
    u = sampling.random_generic(2, np.random.default_rng(3), scale_to=None)
    assert not queue and decomposed == [u]
    monkeypatch.undo()
    assert _same_draw(u, sampling.random_generic(2, np.random.default_rng(3), scale_to=None))


def test_unexpected_errors_in_the_stacked_lambda_pass_propagate(monkeypatch, decomposed):
    def broken(k, c):
        raise TypeError("broken coefficient stack")

    monkeypatch.setattr(hankel, "_coefficient_stack", broken)
    with pytest.raises(TypeError, match="broken coefficient stack"):
        sampling.random_generic(2, np.random.default_rng(0))
    assert decomposed == []


def test_lapack_failure_on_a_block_falls_back_to_one_pass_per_draw(monkeypatch):
    real = sampling._range_stack
    stacks = []

    def failing_on_stacks(k, p, c):
        stacks.append(len(p))
        if len(p) > 1:
            raise np.linalg.LinAlgError("stacked call failed")
        return real(k, p, c)

    ref = np.random.default_rng(5)
    want = sampling.random_generic(3, ref)
    monkeypatch.setattr(sampling, "_range_stack", failing_on_stacks)
    rng = np.random.default_rng(5)
    assert _same_draw(sampling.random_generic(3, rng), want)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert set(stacks) == {sampling._BLOCK, 1}


def _raising_after(draws):
    """A `_draw` double: the given draws, then a RuntimeError."""
    queue = list(draws)

    def double(n, rng, min_sep=0.5):
        if not queue:
            raise RuntimeError("no more draws")
        return queue.pop(0)

    return double


@pytest.mark.parametrize("block", (1, 3, 8))
def test_draws_before_a_failing_draw_are_tested_first(monkeypatch, block):
    good = sampling.random_generic(2, np.random.default_rng(4), scale_to=None)
    monkeypatch.setattr(sampling, "_BLOCK", block)
    monkeypatch.setattr(sampling, "_draw", _raising_after([_pairs(good)]))
    assert _same_draw(sampling.random_generic(2, np.random.default_rng(0), scale_to=None), good)


@pytest.mark.parametrize("block", (1, 3, 8))
def test_a_failing_draw_propagates_when_no_draw_before_it_passes(monkeypatch, block):
    monkeypatch.setattr(sampling, "_BLOCK", block)
    for draws in ([], [ILL_CONDITIONED]):
        monkeypatch.setattr(sampling, "_draw", _raising_after(draws))
        with pytest.raises(RuntimeError, match="no more draws"):
            sampling.random_generic(2, np.random.default_rng(0))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_stacked_pass_is_bitwise_the_single_draw_pass(n):
    rng = np.random.default_rng(40 + n)
    draws = [sampling._draw(n, rng) for _ in range(200)]
    # an ill-conditioned pair of poles in the block
    draws[3:3] = [_pairs(_symbol(ILL_CONDITIONED + draws[3][2:]))] if n > 1 else []
    symbols = [_symbol(d) for d in draws]
    accepted = 0
    for d, u, sigma in zip(draws, symbols, sampling._sigmas(draws)):
        assert u.poles() == tuple(p for p, _ in d)      # the draw is in canonical order
        if sigma is None:
            with pytest.raises((NumericalError, PreconditionError)):
                hankel._range_basis(u)
            continue
        # the full SVD `eigendecompose` takes: compute_uv=False is another LAPACK path
        assert np.array_equal(sigma, np.linalg.svd(hankel._range_basis(u)[1])[1])
        accepted += 1
    assert accepted >= 190
    p, c = np.array(draws).transpose(2, 0, 1).copy()
    G, ok, _, _ = hankel._range_stack((0,) * n, p, c)
    for u, gram, good in zip(symbols, G, ok):
        if good:
            layout, p1, c1 = u._flat
            assert np.array_equal(gram, hankel._range_stack(layout, p1[None], c1[None])[0][0])


@pytest.mark.parametrize("draw", (sampling.random_symbol, sampling.random_generic,
                                  sampling.random_strongly_generic, sampling.random_coords))
@pytest.mark.parametrize("n", (0, -2))
def test_degree_below_one_is_an_input_error(draw, n):
    with pytest.raises(InputError, match="degree must be at least 1"):
        draw(n, np.random.default_rng(0))


@pytest.mark.parametrize("lam_ratio", (math.nan, math.inf, -math.inf))
def test_non_finite_lambda_ratio_is_an_input_error(lam_ratio):
    # a NaN ratio would turn the test sigma_min < nan * sigma_max off
    with pytest.raises(InputError, match="lam_ratio"):
        sampling.random_generic(2, np.random.default_rng(0), lam_ratio=lam_ratio)


@pytest.mark.parametrize("scale_to", (math.nan, math.inf, -math.inf, 0.0, -0.8))
def test_scale_to_must_be_finite_and_positive(scale_to):
    # unchecked, NaN and inf scaled a draw to a non-finite symbol, 0 to the zero
    # symbol, and a negative value by a negative factor
    for draw in (sampling.random_generic, sampling.random_strongly_generic):
        with pytest.raises(InputError, match="scale_to"):
            draw(2, np.random.default_rng(0), scale_to=scale_to)


@pytest.mark.parametrize("min_sep", (math.nan, math.inf, -math.inf))
def test_non_finite_min_sep_is_an_input_error(min_sep):
    # a NaN separation failed every pole test and burned `_MAX_TRIES` tries
    with pytest.raises(InputError, match="min_sep"):
        sampling.random_symbol(2, np.random.default_rng(0), min_sep=min_sep)


def test_one_symbol_built_per_decomposed_draw(monkeypatch, decomposed):
    # the ratio test reads raw draws; only a draw that passes it is built as a symbol
    built = []

    def counting(pairs):
        built.append(hardy_from_terms(pairs))
        return built[-1]

    monkeypatch.setattr(sampling, "hardy_from_terms", counting)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        sampling.random_generic(3, rng)
        sampling.random_strongly_generic(2, rng)
    assert len(built) == len(decomposed) == 16
    assert all(u is v for u, v in zip(built, decomposed))


def test_degree_four_draw_can_exhaust_the_cap():
    # seeds 24, 39, 40, 61 and 99 of 0-99 find no draw in `_MAX_TRIES`
    with pytest.raises(NumericalError, match="rejection sampling failed"):
        sampling.random_generic(4, np.random.default_rng(24))


def test_one_pole_strongly_generic_draw():
    # one soliton speed leaves no gap to test
    u = sampling.random_strongly_generic(1, np.random.default_rng(0))
    assert u.degree == 1 and eigendecompose(u).genericity == "strongly_generic"
