"""Partial-fraction arithmetic and residue calculus for complex rational functions.

Every function is stored as a finite sum

    f(x) = sum_j sum_{l=1}^{m_j} c_{j,l} / (x - p_j)^l

with pairwise distinct poles ``p_j``; every such function decays at infinity.
Hardy elements (class :class:`HardyRational`) have every pole strictly below
the real axis, so they are boundary values of functions holomorphic in the
upper half-plane and their Fourier transform is supported on ``[0, oo)``:

    FT[1/(x-p)^l](xi) = 2*pi*(-i)^l / (l-1)! * xi^(l-1) * exp(-i*p*xi).

Integrals of functions decaying like 1/x^2 are evaluated by residues:
``int f = -2*pi*i * (sum of first-order coefficients at poles below the
axis)``.  Products are computed exactly by truncated Laurent expansion around
each pole of the result, so no polynomial root finding enters the arithmetic.

Root finding enters only `pf_from_ratio`: `_cluster_poles` groups its roots
into multiple poles by the rule the flow layer applies to eigenvalues.

The coefficients of g = 1 - b_u, with b_u the Blaschke product of u, have a
closed form in the poles alone (`_g_coeffs`); the spectral layer reads them
directly, and `blaschke` regroups them into a function and checks
H_u(g) = u with the generic arithmetic above.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, PreconditionError

# Tolerances of the representation layer.
POLE_MERGE_RTOL = 1e-12      # arithmetic: poles this close are the same pole
COEFF_TRIM_RTOL = 5e-14      # coefficients this small (vs. the largest) are dropped
DEGREE_CAP = 64              # denominator degree cap of pf_from_ratio
# Relative separation below which computed roots or eigenvalues are one
# multiple pole.  They scatter like eps^(1/m), about 2e-8 already for a
# double pole, so the radius must sit well above that.
EIG_SEP_RTOL = 20.0 * (2.3e-16) ** (1.0 / 3.0)

__all__ = [
    "PoleTerm",
    "RationalFn",
    "HardyRational",
    "BlaschkeData",
    "FourierTerm",
    "from_terms",
    "hardy_from_terms",
    "simple_pole",
    "zero",
    "as_hardy",
    "pf_from_ratio",
    "szego_project",
    "hankel_apply",
    "lambda_functional",
    "fn_integral",
    "inner_product",
    "symplectic_form",
    "blaschke",
    "fourier_transform",
    "spectral_density",
    "homogeneous_sobolev_norm",
    "l2_norm",
    "h_half_norm",
    "to_json_dict",
    "from_json_dict",
    "load_symbol",
]


# ----------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class PoleTerm:
    """One pole with its stack of coefficients c_l for 1/(x-p)^l, l=1..mult."""

    pole: complex
    coeffs: tuple[complex, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.coeffs)

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("pole term with no coefficients")
        if self.coeffs[-1] == 0:
            raise InputError("top coefficient of a pole term must be nonzero")


@dataclass(frozen=True)
class RationalFn:
    """Canonical partial-fraction form; immutable value object."""

    terms: tuple[PoleTerm, ...] = ()

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total pole multiplicity (rank bookkeeping for Hardy symbols)."""
        return sum(t.multiplicity for t in self.terms)

    def is_zero(self, tol: float = 0.0) -> bool:
        mx = self.max_coeff()
        return mx <= tol

    def max_coeff(self) -> float:
        return max((abs(c) for t in self.terms for c in t.coeffs), default=0.0)

    def poles(self) -> tuple[complex, ...]:
        return tuple(t.pole for t in self.terms)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RationalFn") -> "RationalFn":
        pairs = [(t.pole, list(t.coeffs)) for t in self.terms]
        pairs += [(t.pole, list(t.coeffs)) for t in other.terms]
        return from_terms(pairs)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __neg__(self) -> "RationalFn":
        return self.scale(-1.0)

    def scale(self, a: complex) -> "RationalFn":
        if a == 0:
            return RationalFn()
        terms = tuple(
            PoleTerm(t.pole, tuple(a * c for c in t.coeffs)) for t in self.terms
        )
        return RationalFn(terms)

    def __rmul__(self, a):
        if isinstance(a, (int, float, complex)):
            return self.scale(a)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if isinstance(other, RationalFn):
            return _mul(self, other)
        return NotImplemented

    def conj_reflect(self) -> "RationalFn":
        """x -> conj(f(conj(x))); mirrors poles across the real axis."""
        terms = [
            (t.pole.conjugate(), [c.conjugate() for c in t.coeffs])
            for t in self.terms
        ]
        return from_terms(terms)

    # -- evaluation -----------------------------------------------------

    def __call__(self, z):
        return self.evaluate(z)

    def evaluate(self, z):
        """Direct summation of the partial fractions at z (scalar or array)."""
        zarr = np.asarray(z, dtype=complex)
        out = np.zeros_like(zarr)
        for t in self.terms:
            d = zarr - t.pole
            if np.min(np.abs(d)) < 1e-14:
                raise InputError("evaluation at pole")
            acc = np.zeros_like(zarr)
            for c in reversed(t.coeffs):
                acc = (acc + c) / d
            out = out + acc
        if np.isscalar(z) or zarr.ndim == 0:
            return complex(out)
        return out


@dataclass(frozen=True)
class HardyRational(RationalFn):
    """Rational element of the Hardy space: decaying, poles strictly below R."""

    def __post_init__(self):
        for t in self.terms:
            if t.pole.imag >= -1e-12:
                raise InputError("pole on or above real line")


def from_terms(pairs) -> RationalFn:
    """Canonicalize (pole, coeffs) pairs: merge, trim, sort."""
    merged: list[tuple[complex, list[complex]]] = []
    for pole, coeffs in pairs:
        pole = complex(pole)
        coeffs = [complex(c) for c in coeffs]
        tol = POLE_MERGE_RTOL * max(1.0, abs(pole))
        for mp, mc in merged:
            if abs(mp - pole) <= tol:
                while len(mc) < len(coeffs):
                    mc.append(0.0j)
                for i, c in enumerate(coeffs):
                    mc[i] += c
                break
        else:
            merged.append((pole, coeffs))
    scale = max((abs(c) for _, cs in merged for c in cs), default=0.0)
    floor = COEFF_TRIM_RTOL * scale
    out = []
    for pole, coeffs in merged:
        while coeffs and abs(coeffs[-1]) <= floor:
            coeffs.pop()
        coeffs = [0.0j if abs(c) <= floor else c for c in coeffs]
        if coeffs:
            out.append(PoleTerm(pole, tuple(coeffs)))
    out.sort(key=lambda t: (t.pole.real, t.pole.imag))
    return RationalFn(tuple(out))


def hardy_from_terms(pairs) -> HardyRational:
    f = from_terms(pairs)
    return HardyRational(f.terms)


def as_hardy(f: RationalFn) -> HardyRational:
    return HardyRational(f.terms)


def simple_pole(coeff: complex, pole: complex) -> HardyRational:
    """The Hardy element coeff/(x - pole)."""
    return hardy_from_terms([(pole, [coeff])])


def zero() -> HardyRational:
    return HardyRational()


# ----------------------------------------------------------------------------
# polynomial helpers (ascending coefficient tuples)


def _poly_eval(coeffs, z):
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _poly_shift(coeffs, p):
    """Coefficients of q(y) = poly(p + y), by repeated synthetic division."""
    work = list(coeffs)
    res = []
    for _ in range(len(coeffs)):
        q = [0.0j] * (len(work) - 1)
        rem = work[-1]
        for i in range(len(work) - 2, -1, -1):
            q[i] = rem
            rem = work[i] + p * rem
        res.append(rem)
        work = q
        if not work:
            break
    return tuple(res)


# ----------------------------------------------------------------------------
# exact multiplication


def _taylor_of_term_at(pole, coeffs, p, order):
    """Taylor coefficients (length `order`) around p of sum_l c_l/(x-pole)^l."""
    out = [0.0j] * order
    d = p - pole
    for l, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        for n in range(order):
            out[n] += c * ((-1) ** n) * math.comb(l + n - 1, n) / d ** (l + n)
    return out


def _laurent_at(f: RationalFn, p: complex, mult_here: int, order: int):
    """Laurent coefficients of f around p for exponents -mult_here .. order-1."""
    coeffs = [0.0j] * (mult_here + order)
    tol = POLE_MERGE_RTOL * max(1.0, abs(p))
    for t in f.terms:
        if abs(t.pole - p) <= tol:
            for l, c in enumerate(t.coeffs, start=1):
                coeffs[mult_here - l] += c
        else:
            tay = _taylor_of_term_at(t.pole, t.coeffs, p, order)
            for n in range(order):
                coeffs[mult_here + n] += tay[n]
    return coeffs


def _mult_at(f: RationalFn, p: complex) -> int:
    tol = POLE_MERGE_RTOL * max(1.0, abs(p))
    for t in f.terms:
        if abs(t.pole - p) <= tol:
            return t.multiplicity
    return 0


def _mul(f: RationalFn, g: RationalFn) -> RationalFn:
    # pole set of the product with summed multiplicities
    seen: list[complex] = []
    for src in (f, g):
        for t in src.terms:
            tol = POLE_MERGE_RTOL * max(1.0, abs(t.pole))
            if not any(abs(t.pole - q) <= tol for q in seen):
                seen.append(t.pole)
    pairs = []
    for p in seen:
        mf, mg = _mult_at(f, p), _mult_at(g, p)
        m = mf + mg
        lf = _laurent_at(f, p, mf, mg)   # exponents -mf .. mg-1
        lg = _laurent_at(g, p, mg, mf)   # exponents -mg .. mf-1
        # product principal part: exponents -m .. -1
        coeffs = [0.0j] * m
        for i, a in enumerate(lf):       # exponent i - mf
            if a == 0:
                continue
            for j, b in enumerate(lg):   # exponent j - mg
                k = (i - mf) + (j - mg)
                if -m <= k <= -1:
                    coeffs[k + m] += a * b
        # coeffs[idx] holds exponent idx - m; coefficient of 1/(x-p)^l is at idx = m - l
        stack = [coeffs[m - l] for l in range(1, m + 1)]
        pairs.append((p, stack))
    return from_terms(pairs)


# ----------------------------------------------------------------------------
# construction from a ratio of polynomials


def _cluster_poles(vals: np.ndarray) -> list[tuple[complex, int]]:
    """Group computed roots or eigenvalues into (center, multiplicity).

    Values within EIG_SEP_RTOL * max(1, max |v|) of a cluster's running
    mean join it; the mean cancels the leading, symmetric part of the
    eps^(1/m) scatter of a multiple root.
    """
    tol = EIG_SEP_RTOL * max(1.0, float(np.max(np.abs(vals))))
    groups: list[tuple[complex, int]] = []
    for v in sorted(vals, key=lambda z: (z.real, z.imag)):
        for i, (c, m) in enumerate(groups):
            if abs(v - c) <= tol:
                groups[i] = ((c * m + v) / (m + 1), m + 1)
                break
        else:
            groups.append((complex(v), 1))
    return groups


def pf_from_ratio(numerator, denominator) -> HardyRational:
    """Partial fractions of A/B for a Hardy-admissible denominator.

    `numerator`, `denominator`: ascending complex coefficients.  Requires
    deg A <= deg B - 1 and all roots of B strictly below the real axis.
    """
    num = tuple(complex(c) for c in numerator)
    den = tuple(complex(c) for c in denominator)
    while num and num[-1] == 0:
        num = num[:-1]
    while den and den[-1] == 0:
        den = den[:-1]
    if len(den) < 2:
        raise InputError("denominator must have degree >= 1")
    if len(num) >= len(den):
        raise InputError("numerator degree must be below denominator degree")
    if len(den) > DEGREE_CAP + 1:
        raise InputError(f"polynomial degree exceeds cap {DEGREE_CAP}")
    roots = np.roots(den[::-1])
    clusters = _cluster_poles(roots)
    for p, _m in clusters:
        if p.imag >= -1e-12:
            raise InputError("pole on or above real line")
    if num:
        for p, _m in clusters:
            scale = sum(abs(c) * max(1.0, abs(p)) ** k for k, c in enumerate(num))
            if abs(_poly_eval(num, p)) <= 1e-8 * scale:
                raise InputError("non-reduced fraction")
    lead = den[-1]
    scaled_num = tuple(c / lead for c in num)
    pairs = _pf_from_factored(scaled_num, clusters)
    return hardy_from_terms(pairs)


def _pf_from_factored(num, clusters):
    """Partial fractions of num(x)/prod (x-p)^m with a known factored base."""
    pairs = []
    for p, m in clusters:
        tay = list(_poly_shift(num, p)[:m]) if num else []
        while len(tay) < m:
            tay.append(0.0j)
        for q, mq in clusters:
            if q is p or (q == p):
                continue
            fac = _taylor_of_term_at(q, [0.0j] * (mq - 1) + [1.0 + 0.0j], p, m)
            new = [0.0j] * m
            for i in range(m):
                for j in range(m - i):
                    new[i + j] += tay[i] * fac[j]
            tay = new
        coeffs = [tay[m - l] for l in range(1, m + 1)]
        pairs.append((p, coeffs))
    return pairs


# ----------------------------------------------------------------------------
# projector, Hankel action, functionals


def szego_project(f: RationalFn) -> HardyRational:
    """Keep the partial-fraction terms with poles in the lower half-plane."""
    keep = [(t.pole, t.coeffs) for t in f.terms if t.pole.imag < 0]
    return hardy_from_terms(keep)


def hankel_apply(u: HardyRational, h: HardyRational) -> HardyRational:
    """H_u(h) = projection of u * conj(h); antilinear in h."""
    return szego_project(u * h.conj_reflect())


def lambda_functional(f: RationalFn) -> complex:
    """lim_{x->oo} x f(x): the sum of all first-order coefficients."""
    return sum((t.coeffs[0] for t in f.terms), 0.0j)


def fn_integral(f: RationalFn) -> complex:
    """Integral over R of a rational function decaying like 1/x^2."""
    scale = f.max_coeff()
    if scale == 0.0:
        return 0.0j
    if abs(lambda_functional(f)) > 1e-8 * max(1.0, scale):
        raise PreconditionError("non-integrable")
    total = 0.0j
    for t in f.terms:
        if abs(t.pole.imag) <= 1e-12:
            raise PreconditionError("non-integrable")
        if t.pole.imag < 0:
            total += t.coeffs[0]
    return -2j * math.pi * total


def inner_product(f: RationalFn, h: RationalFn) -> complex:
    """(f, h) = int f conj(h), exact by residues."""
    return fn_integral(f * h.conj_reflect())


def symplectic_form(u: RationalFn, v: RationalFn) -> float:
    """omega(u, v) = 4 Im int u conj(v)."""
    return 4.0 * inner_product(u, v).imag


def l2_norm(f: HardyRational) -> float:
    """The L^2 norm in closed form: the s = 0 homogeneous Sobolev norm."""
    return homogeneous_sobolev_norm(f, 0.0)


# ----------------------------------------------------------------------------
# Blaschke product and g = 1 - b_u


@dataclass(frozen=True)
class BlaschkeData:
    """Inner function b_u = prod ((x-conj p)/(x-p))^m and g = 1 - b_u."""

    poles: tuple[complex, ...]
    mults: tuple[int, ...]
    g: HardyRational

    def evaluate_b(self, z):
        zarr = np.asarray(z, dtype=complex)
        out = np.ones_like(zarr)
        for p, m in zip(self.poles, self.mults):
            out = out * ((zarr - p.conjugate()) / (zarr - p)) ** m
        if np.isscalar(z) or zarr.ndim == 0:
            return complex(out)
        return out


def _g_coeffs(u: HardyRational) -> np.ndarray:
    """Coefficients of g = 1 - b_u on 1/(x-p)^l, in range-basis order.

    Around a pole p of multiplicity m, b_u = (x-p)^-m h(x) with
    h(x) = (x - conj p)^m prod_{q != p} ((x - conj q)/(x - q))^(m_q), so the
    coefficient of g on 1/(x-p)^l is -h_(m-l).  The Taylor coefficients of
    h/h(p) follow from the power sums of log h,
    s_n = (-1)^(n+1)/n sum_q m_q ((p - conj q)^-n - [q != p] (p - q)^-n),
    by the exponential recursion n a_n = sum_k k s_k a_(n-k).  For a simple
    pole the coefficient is -(p - conj p) prod_{q != p} (p - conj q)/(p - q).
    """
    p = np.array([t.pole for t in u.terms])
    m = np.array([t.multiplicity for t in u.terms])
    Dbar = p[:, None] - p.conj()[None, :]   # p_j - conj p_k, never zero
    D = p[:, None] - p[None, :]
    np.fill_diagonal(D, 1.0)
    h0 = np.prod((Dbar / D) ** m, axis=1)
    Dinv = 1.0 / D
    np.fill_diagonal(Dinv, 0.0)
    s = [None] + [(-1) ** (n + 1) / n * ((Dbar ** -n - Dinv**n) @ m)
                  for n in range(1, int(m.max()))]
    out = []
    for j, mj in enumerate(m):
        a = [1.0 + 0.0j]
        for n in range(1, mj):
            a.append(sum(k * s[k][j] * a[n - k] for k in range(1, n + 1)) / n)
        out.extend(-h0[j] * a[mj - l] for l in range(1, mj + 1))
    return np.array(out)


def blaschke(u: HardyRational) -> BlaschkeData:
    """Blaschke data of the symbol; checks H_u(g) = u internally."""
    if u.is_zero():
        raise PreconditionError("undefined for zero symbol")
    poles = tuple(t.pole for t in u.terms)
    mults = tuple(t.multiplicity for t in u.terms)
    cg = iter(_g_coeffs(u))
    g = hardy_from_terms([(p, [next(cg) for _ in range(m)]) for p, m in zip(poles, mults)])
    resid = hankel_apply(u, g) - u
    if resid.max_coeff() > 1e-10 * max(1.0, u.max_coeff()):
        raise NumericalError("Blaschke postcondition H_u(g) = u failed")
    return BlaschkeData(poles, mults, g)


# ----------------------------------------------------------------------------
# Fourier side


@dataclass(frozen=True)
class FourierTerm:
    """One term amplitude * xi^power * exp(-i*pole*xi) of a spectral density."""

    amplitude: complex
    pole: complex
    power: int


def fourier_transform(f: HardyRational) -> tuple[FourierTerm, ...]:
    """Closed-form Fourier transform on xi > 0; zero on xi < 0."""
    out = []
    for t in f.terms:
        for l, c in enumerate(t.coeffs, start=1):
            if c == 0:
                continue
            amp = c * 2.0 * math.pi * (-1j) ** l / math.factorial(l - 1)
            out.append(FourierTerm(amp, t.pole, l - 1))
    return tuple(out)


def spectral_density(f: HardyRational, xi):
    """Evaluate the closed-form transform at xi >= 0 (scalar or array)."""
    xarr = np.asarray(xi, dtype=float)
    out = np.zeros(xarr.shape, dtype=complex)
    for ft in fourier_transform(f):
        out += ft.amplitude * xarr**ft.power * np.exp(-1j * ft.pole * xarr)
    if np.isscalar(xi) or xarr.ndim == 0:
        return complex(out)
    return out


def _sobolev_norms(f: HardyRational, ss) -> tuple[float, ...]:
    """Homogeneous Sobolev norms of f for every s in ss, from one transform.

    ||f||_{Hdot^s}^2 = (1/2pi) int_0^oo xi^(2s) |fhat|^2, with every cross
    term integrating to Gamma(a+1)/c^(a+1) where c = i(p_a - conj(p_b)) has
    positive real part.
    """
    ss = np.asarray(ss, dtype=float)
    if np.any(ss < 0):
        raise PreconditionError("Sobolev index must be nonnegative")
    fts = fourier_transform(f)
    if not fts:
        return (0.0,) * len(ss)
    amp = np.array([t.amplitude for t in fts])
    pol = np.array([t.pole for t in fts])
    pw = np.array([t.power for t in fts])
    A = amp[:, None] * np.conj(amp[None, :])
    k = pw[:, None] + pw[None, :]
    gam = np.array([[math.gamma(2.0 * s + j + 1.0) for j in range(2 * pw.max() + 1)]
                    for s in ss])
    n = 2.0 * ss[:, None, None] + k
    c = 1j * (pol[:, None] - np.conj(pol[None, :]))
    total = np.sum(A * gam[:, k] / c ** (n + 1.0), axis=(1, 2))
    return tuple(math.sqrt(max(v, 0.0)) for v in total.real / (2.0 * math.pi))


def homogeneous_sobolev_norm(f: HardyRational, s: float) -> float:
    """Exact homogeneous Sobolev norm via Gamma-function integrals."""
    return _sobolev_norms(f, (s,))[0]


def h_half_norm(f: HardyRational) -> float:
    """The conserved H^(1/2) quantity: sqrt(mass + momentum).

    Equals (||f||_L2^2 + ||f||_{Hdot^(1/2)}^2)^(1/2); this is the combination
    that the flow preserves exactly, and the convention used by trajectory
    observables and conservation tests.
    """
    a, b = _sobolev_norms(f, (0.0, 0.5))
    return math.sqrt(a * a + b * b)


# ----------------------------------------------------------------------------
# JSON interchange


def to_json_dict(f: HardyRational) -> dict:
    return {
        "terms": [
            {
                "pole": [t.pole.real, t.pole.imag],
                "coeffs": [[c.real, c.imag] for c in t.coeffs],
            }
            for t in f.terms
        ]
    }


def from_json_dict(d: dict) -> HardyRational:
    try:
        pairs = []
        for td in d["terms"]:
            pole = complex(td["pole"][0], td["pole"][1])
            coeffs = [complex(c[0], c[1]) for c in td["coeffs"]]
            pairs.append((pole, coeffs))
    except (KeyError, TypeError, IndexError) as e:
        raise InputError(f"malformed symbol JSON: {e}") from e
    return hardy_from_terms(pairs)


def load_symbol(text_or_dict) -> HardyRational:
    """Accept a symbol as JSON text/dict: either partial fractions or A/B."""
    if isinstance(text_or_dict, str):
        try:
            d = json.loads(text_or_dict)
        except json.JSONDecodeError as e:
            raise InputError(f"invalid JSON: {e}") from e
    else:
        d = text_or_dict
    if not isinstance(d, dict):
        raise InputError("symbol JSON must be an object")
    if "terms" in d:
        return from_json_dict(d)
    if "numerator" in d and "denominator" in d:
        def _ascomplex(seq):
            out = []
            for c in seq:
                if isinstance(c, (list, tuple)):
                    out.append(complex(c[0], c[1]))
                else:
                    out.append(complex(c))
            return out
        try:
            num = _ascomplex(d["numerator"])
            den = _ascomplex(d["denominator"])
        except (TypeError, IndexError) as e:
            raise InputError(f"malformed polynomial spec: {e}") from e
        return pf_from_ratio(num, den)
    raise InputError("symbol JSON needs 'terms' or 'numerator'/'denominator'")
