"""The benchmark's four workloads: seeded inputs, operations and their checks.

Each workload builds one *round*: a list of operations, every one a call
into szego's public API plus a checker for its output.  A run does a fixed
number of rounds (see `rounds` and `schedule`), so for a given seed it
attempts the same operations in the same order however fast the program
is.  Inputs come from the benchmark's own generators and the run's
seed; references come from `checks`, which does not use szego.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# Seconds one round took when the benchmark was written (2-vCPU
# x86-64 virtual machine, one BLAS thread).  A run of `seconds` does
# round(seconds / ROUND_SECONDS) rounds; the constants never follow the
# program's speed, so a faster program does the same work in less time.
ROUND_SECONDS = {"spectral": 0.15, "evolve": 1.8, "oracle": 4.2, "roundtrip": 3.0}

SOLITON = [(-1j, [1.0])]
GENERIC_M2 = [(-1j, [1.0]), (0.8 - 0.7j, [0.5 + 0.3j])]      # tests' generic_m2
DOUBLE_EIG = [(-1j, [2.0]), (-2j, [-4.0])]                   # lambda^2 = 1/9 twice

# The 8-pole symbols do not depend on the run's seed: today almost every
# random 8-pole symbol fails in chi (classify_genericity), and a few fail in
# trajectory, so seeded ones would make the failed share vary by seed.
FIXED_8POLE_SEED = 8

TRAJ_TIMES = tuple(float(t) for t in np.linspace(-5.0, 5.0, 11))
TRAJ_OBSERVABLES = ("poles", "coefficients", "norms")
REMAINDER_TIMES = tuple(float(t) for t in np.geomspace(1e2, 1e4, 41))
REMAINDER_S = (0.0, 0.5, 1.0)
# Soliton speeds at least this share of the largest apart.  At 0.1, two of
# about 700 draws had not separated by t = 1e4: fitted exponent -0.45 and
# -0.48, short of the 1/t law; at 0.25 the largest of 450 was -0.58.
REMAINDER_SPEED_GAP = 0.25
GROWTH_TIMES = tuple(float(t) for t in np.geomspace(1e2, 1e4, 17))
GROWTH_S = (0.75, 1.0, 2.0)
ORACLE_DT = 1e-3
ORACLE_GRIDS = ((200.0, 2**14, 0.04), (120.0, 2**12, 0.4))   # (L, M, t)
ROUNDTRIP_N = 3
ROUNDTRIP_SEEDS = tuple(range(64))


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def rounds(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# -- input generators ---------------------------------------------------------


def draw_poles(rng, n: int, min_sep: float = 0.5) -> list[complex]:
    """n poles with Re p in [-1.5, 1.5], Im p in [-1.6, -0.5], pairwise >= min_sep."""
    while True:
        poles = [complex(rng.uniform(-1.5, 1.5), -rng.uniform(0.5, 1.6))
                 for _ in range(n)]
        if all(abs(a - b) >= min_sep for i, a in enumerate(poles) for b in poles[i + 1:]):
            return poles


def draw_coeff(rng) -> complex:
    while True:
        c = complex(rng.normal(), rng.normal())
        if abs(c) >= 0.2:
            return c


def draw_simple(rng, n: int):
    return [(p, [draw_coeff(rng)]) for p in draw_poles(rng, n)]


def draw_multiple(rng, order: int):
    """One simple pole plus one pole of the given order."""
    p1, p2 = draw_poles(rng, 2)
    return [(p1, [draw_coeff(rng)]), (p2, [draw_coeff(rng) for _ in range(order)])]


def draw_coords(sz, rng, n: int, speed_gap: float = 0.0):
    """Action-angle coordinates; soliton speeds lambda^2 nu^2 apart by speed_gap."""
    lam2 = np.cumsum(rng.uniform(0.25, 1.0, n))
    while True:
        nus = rng.uniform(0.6, 1.8, n)
        speeds = np.sort(lam2 * nus**2)
        if n == 1 or np.min(np.diff(speeds)) >= speed_gap * speeds[-1]:
            break
    return sz.ActionAngleCoords(
        tuple(float(v) for v in 2.0 * lam2 * nus**2),
        tuple(float(v) for v in 4.0 * math.pi * lam2),
        tuple(float(v) for v in rng.uniform(0.0, 2.0 * math.pi, n)),
        tuple(float(v) for v in rng.uniform(-1.5, 1.5, n)),
    )


def terms_of(u):
    return [(t.pole, list(t.coeffs)) for t in u.terms]


def _moved(terms, phase: float, shift: float):
    """e^{i phase} u(x - shift): an exact symmetry of the equation."""
    rot = complex(math.cos(phase), math.sin(phase))
    return [(p + shift, [rot * c for c in cs]) for p, cs in terms]


# -- workloads ----------------------------------------------------------------


def _forward(sz, label, terms, ref, with_chi=True) -> Op:
    u = sz.hardy_from_terms(terms)

    def call():
        dec = sz.eigendecompose(u)
        tm = sz.t_matrix(u, dec)
        return dec, tm, sz.chi(dec) if with_chi else None

    def check(out):
        dec, tm, coords = out
        return checks.check_forward(ref, dec.lambdas, dec.nus, tm.t, coords)

    return Op(label, call, check)


def _inverse(sz, label, coords, cache) -> Op:
    return Op(label, lambda: sz.chi_inverse(coords),
              lambda u: checks.check_inverse(coords, terms_of(u), cache))


def spectral(sz, rng, tmp):
    """Forward eigendecompose -> t_matrix -> chi and inverse chi_inverse."""
    ops = []
    for n in (1, 2, 4):
        for _ in range(4):
            terms = draw_simple(rng, n)
            ops.append(_forward(sz, f"forward.n{n}", terms, checks.ForwardRef(terms)))
    fixed = np.random.default_rng(FIXED_8POLE_SEED)
    for _ in range(4):
        terms = draw_simple(fixed, 8)
        ops.append(_forward(sz, "forward.n8", terms, checks.ForwardRef(terms)))
    for order in (2, 3):
        for _ in range(2):
            terms = draw_multiple(rng, order)
            ops.append(_forward(sz, f"forward.order{order}", terms, checks.ForwardRef(terms)))
    ops.append(_forward(sz, "forward.double_eig", DOUBLE_EIG,
                        checks.ForwardRef(DOUBLE_EIG, checks.DOUBLE_EIG_LAM2),
                        with_chi=False))
    cache: dict = {}
    for n in (2, 4, 8):
        for _ in range(4):
            ops.append(_inverse(sz, f"inverse.n{n}", draw_coords(sz, rng, n), cache))
    return ops


def _trajectory(sz, label, terms) -> Op:
    u = sz.hardy_from_terms(terms)
    mass = checks.norm2(terms)
    h12 = None
    if checks.is_simple(terms):
        poles, coeffs = [p for p, _ in terms], [cs[0] for _, cs in terms]
        h12 = math.sqrt(mass + checks.hdot_half2(poles, coeffs))
    return Op(label,
              lambda: sz.trajectory(u, TRAJ_TIMES, observables=TRAJ_OBSERVABLES, hs=(1.0,)),
              lambda rows: checks.check_trajectory(terms, TRAJ_TIMES, rows, mass, h12))


def evolve(sz, rng, tmp):
    """Trajectories, soliton resolution and Sobolev growth."""
    ops = []
    for n in (1, 2, 4):
        for _ in range(2):
            ops.append(_trajectory(sz, f"trajectory.n{n}", draw_simple(rng, n)))
    # Fixed, like spectral's: one of 276 seeded 8-pole draws raised
    # NumericalError("conjugation basis failure"), a seed-dependent failure.
    fixed = np.random.default_rng(FIXED_8POLE_SEED)
    for _ in range(2):
        ops.append(_trajectory(sz, "trajectory.n8", draw_simple(fixed, 8)))
    # Double poles only: recover_rational fails on about 3% of triple-pole
    # draws at t = 0 (Schur + least-squares route), a seed-dependent failure.
    # Four of them, so that the round's median operation lies among them:
    # with two it fell where the cheaper operations (N <= 2, growth_fit)
    # end, and moved from run to run by 0.18 of itself.
    for _ in range(4):
        ops.append(_trajectory(sz, "trajectory.order2", draw_multiple(rng, 2)))
    for n in (2, 3, 4):
        u = sz.chi_inverse(draw_coords(sz, rng, n, speed_gap=REMAINDER_SPEED_GAP))
        mass = checks.norm2(terms_of(u))
        ops.append(Op(f"remainder.n{n}",
                      lambda u=u: sz.remainder_norms(u, REMAINDER_TIMES, REMAINDER_S),
                      lambda rep, mass=mass: checks.check_remainder(rep, mass)))
    u = sz.hardy_from_terms(_moved(DOUBLE_EIG, rng.uniform(0.0, 2.0 * math.pi), 0.0))
    for s in GROWTH_S:
        ops.append(Op(f"growth.s{s:g}",
                      lambda s=s: sz.growth_fit(u, s, GROWTH_TIMES),
                      lambda out, s=s: checks.check_growth(out, s)))
    return ops


def oracle(sz, rng, tmp):
    """compare() at the acceptance grid and at a 4x smaller one."""
    symbols = []
    for name, terms in (("soliton", SOLITON), ("generic_m2", GENERIC_M2),
                        ("double_eig", DOUBLE_EIG)):
        moved = _moved(terms, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-2.0, 2.0))
        symbols.append((name, sz.hardy_from_terms(moved)))
    ops = []
    for L, M, t in ORACLE_GRIDS:
        for name, u in symbols:
            ops.append(Op(f"compare.m{M}.{name}",
                          lambda u=u, L=L, M=M, t=t: sz.compare(u, t, L, M, ORACLE_DT),
                          checks.check_oracle))
    return ops


def _roundtrip_call(sz, seed: int, out: str):
    code = sz.cli.main(["roundtrip", "--n", str(ROUNDTRIP_N), "--count", "1",
                        "--seed", str(seed), "--out", out])
    if code != 0:
        return code, None
    with open(os.path.join(out, "roundtrip.json"), encoding="utf-8") as fh:
        return code, json.load(fh)


def roundtrip(sz, rng, tmp):
    """`szego roundtrip --n 3 --count 1` in-process, one CLI seed per operation.

    The CLI seeds are a fixed pool in a seeded order: the cost of one seed
    is a rejection-sampling draw (18 to 143 ms for seeds 0...63), so a
    seeded pool would not repeat from run to run.  At --n 4 one draw took
    0.16 to 6 s, and a run held too few operations for a steady median.
    """
    ops = []
    for seed in rng.permutation(ROUNDTRIP_SEEDS):
        out = os.path.join(tmp, f"roundtrip-{seed}")
        ops.append(Op(f"roundtrip.seed{seed}",
                      lambda seed=int(seed), out=out: _roundtrip_call(sz, seed, out),
                      lambda res: checks.check_roundtrip(*res)))
    return ops


BUILDERS = {"spectral": spectral, "evolve": evolve, "oracle": oracle,
            "roundtrip": roundtrip}


def build(workload: str, sz, rng, tmp) -> list[Op]:
    """One round of the workload, in a seeded order."""
    ops = BUILDERS[workload](sz, rng, tmp)
    return [ops[i] for i in rng.permutation(len(ops))]


def schedule(workload: str, sz, rng, tmp, seconds: int) -> list[Op]:
    """Every operation of one run: `rounds` rounds, in order.

    `evolve` draws fresh inputs for every round: the cost of one of its
    operations depends on the input (a 4-pole trajectory took 43 to 83 ms
    across draws), so with one round of draws repeated its median operation
    moved with the seed.  The others repeat one round: the inputs of
    `oracle` and `roundtrip` do not change their work, and `spectral`'s 33
    operations already spread its cost over many draws.
    """
    n = rounds(workload, seconds)
    if workload == "evolve":
        return [op for _ in range(n) for op in build(workload, sz, rng, tmp)]
    return build(workload, sz, rng, tmp) * n


def warm_up(workload: str, sz, tmp) -> None:
    """Fill lazy imports and caches the way a user's first calls would."""
    if workload == "spectral":
        u = sz.hardy_from_terms(GENERIC_M2)
        dec = sz.eigendecompose(u)
        sz.t_matrix(u, dec)
        sz.chi_inverse(sz.chi(dec))
    elif workload == "evolve":
        u = sz.hardy_from_terms([(-1j, [1.0, 0.5])])   # Schur route at t = 0
        sz.trajectory(u, (0.0, 1.0), observables=TRAJ_OBSERVABLES, hs=(1.0,))
        sz.remainder_norms(sz.hardy_from_terms(SOLITON), np.geomspace(1.0, 50.0, 6), (0.0,))
        sz.growth_fit(sz.hardy_from_terms(DOUBLE_EIG), 1.0, np.geomspace(1e2, 1e4, 5))
    elif workload == "oracle":
        u = sz.hardy_from_terms(SOLITON)
        for L, M, _t in ORACLE_GRIDS:
            sz.compare(u, ORACLE_DT, L, M, ORACLE_DT)
    elif workload == "roundtrip":
        sz.cli.main(["roundtrip", "--n", "2", "--count", "1", "--seed", "0",
                     "--out", os.path.join(tmp, "warm-up")])
    else:
        raise ValueError(f"unknown workload {workload!r}")
