"""Stationary points and the linearized spectrum around them.

The linearization of ``x'(t) = -rate x(t) + gain F(x(t-1))`` at a stationary
value has characteristic function ``lam + rate - slope * exp(-lam)`` with
``slope = gain * F'(xi)``.  In the positive-feedback regime ``slope > rate``
there is a unique positive real root and complex conjugate pairs whose
imaginary parts sit in the bands ``((2j-1)pi, 2j pi)``.  Every complex root
comes from the phase reduction ``_root_by_phase``, without Newton iteration.

The oscillation-angle machinery solves ``theta = -c tan(theta)`` on
``(2j pi - pi/2, 2j pi)`` and packages the data used to place conjugate root
pairs exactly on the imaginary axis (time-rescaled systems), including the
closed-form transversality speed of the crossing pair.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .dde import ParameterError, System, _bisect_crossings

__all__ = [
    "StationaryPoint",
    "StationarySet",
    "SpectrumReport",
    "HopfData",
    "stationary_points",
    "interior_equilibrium",
    "leading_real_root",
    "complex_root_pairs",
    "spectrum_report",
    "solve_theta",
    "hopf_angles",
    "hopf_data",
    "transversality",
    "track_crossing_root",
]


@dataclass(frozen=True)
class StationaryPoint:
    value: float
    classification: str  # "unstable" | "stable-candidate"
    residual: float
    slope: float  # gain * F'(value)


@dataclass(frozen=True)
class StationarySet:
    points: tuple

    def interior(self) -> StationaryPoint:
        inner = [p for p in self.points if p.value > 0.0]
        if not inner:
            raise ValueError("no interior stationary point below the scan ceiling")
        return inner[0]


def interior_equilibrium(c: float, d: float, k: float = 2.0) -> float:
    """Closed-form interior zero of ``-c xi + d xi**k``: ``(c/d)**(1/(k-1))``.

    It lies in (0, 1), below the cutoff, only for ``k > 1``.
    """
    if not d > c > 0:
        raise ValueError("need d > c > 0")
    if not k > 1:
        raise ValueError("need k > 1")
    return (c / d) ** (1.0 / (k - 1.0))


def stationary_points(system: System, ceiling: float) -> StationarySet:
    """All zeros of ``-rate xi + gain F(xi)`` on [0, ceiling].

    Exact zeros on a 10,000-point grid are roots, and each sign change
    between grid points is halved to a bracket width of 1e-14.  0 is always
    a root; the locator sees it with the sign of the map's slope there, the
    sign the map takes just right of 0, so a root below the first grid point
    is kept.  For the limit system the scan stops at the cutoff, where the
    map is discontinuous.
    """
    if ceiling <= 0:
        raise ValueError("ceiling must be positive")
    top = min(ceiling, 1.0 - 1e-9) if system.kind == "limit" else ceiling
    fb = system.feedback

    def alpha(xi):
        return -system.rate * xi + system.gain * fb.value(xi)

    grid = np.linspace(0.0, top, 10_000)
    vals = alpha(grid)
    signs = vals.copy()
    signs[0] = np.sign(system.gain * fb.deriv(0.0) - system.rate)
    _, mids, _ = _bisect_crossings(signs[None, :], grid, lambda _row, xi: alpha(xi), 1e-14)
    roots = [0.0, *grid[(vals == 0.0) & (grid > 0.0)].tolist(), *mids.tolist()]
    points = []
    for r in sorted(set(np.round(roots, 13))):
        slope = system.gain * fb.deriv(r)
        points.append(
            StationaryPoint(
                value=float(r),
                classification="unstable" if slope > system.rate else "stable-candidate",
                residual=abs(alpha(float(r))),
                slope=float(slope),
            )
        )
    return StationarySet(points=tuple(points))


def _halve(F, lo: float, hi: float, tol: float) -> float:
    """The root of ``F`` in ``[lo, hi]``, whose ends lie on either side of 0, halved to width ``tol``."""
    _, mids, _ = _bisect_crossings(np.array([[F(lo), F(hi)]]), np.array([lo, hi]), lambda _row, x: F(x), tol)
    return float(mids[0])


def _char(lam: complex, rate: float, slope: float) -> complex:
    return lam + rate - slope * cmath.exp(-lam)


def leading_real_root(rate: float, slope: float) -> float:
    """The unique real root of ``lam + rate - slope exp(-lam)``.

    Positive when ``slope > rate`` (bisection on [0, slope] to a bracket
    width of 1e-13); zero at the boundary; otherwise the negative real root
    is returned with a warning, with ``slope exp(-lam)`` taken in logs below -512.
    """
    if not (rate > 0 and slope > 0):
        raise ValueError("rate and slope must be positive")

    def F(lam):
        try:
            return lam + rate - (slope * math.exp(-lam) if lam >= -512.0 else math.exp(math.log(slope) - lam))
        except OverflowError:  # slope exp(-lam) beyond every float, so beyond lam + rate
            return -math.inf

    if slope == rate:
        return 0.0
    if slope > rate:
        lo, hi = 0.0, slope
    else:
        warnings.warn("slope <= rate: no positive root; returning the negative real root")
        lo = -1.0
        while F(lo) > 0.0:
            lo *= 2.0
        hi = 0.0
    return _halve(F, lo, hi, 1e-13)


def complex_root_pairs(rate: float, slope: float, count: int = 5) -> list:
    """The first ``count`` conjugate root pairs ``(re, im)``, one per imaginary band.

    Each pair is the root of ``_root_by_phase`` in the band
    ``((2j-1)pi, 2j pi)``, the j-th branch of the closed form
    ``W_j(slope e^rate) - rate`` (Lambert W).  A root the scan finds in the
    strip next to its band's upper edge, where only a large rate puts it, is
    polished by Newton steps on ``_char``.  A band that holds no bracket
    raises ``ParameterError("rate")``: from about rate 1e16 the root lies
    nearer the edge than a float spacing.  A pair whose residual exceeds
    ``max(1e-10, 16 eps (|lam| + rate)^2)`` raises
    ``ParameterError("slope")``.
    """
    if slope <= 0:
        raise ValueError("slope must be positive")
    return [(lam.real, lam.imag) for lam in (_band_root(rate, slope, j) for j in range(1, count + 1))]


def _band_root(rate: float, slope: float, j: int) -> complex:
    lam = _root_by_phase(rate, slope, (2 * j - 1) * math.pi, 2 * j * math.pi)
    if lam is None:  # the root sits about y / rate below the band's upper edge, past a float spacing
        raise ParameterError("rate", f"root pair {j} lies nearer its band's edge than the phase scan resolves")
    # the terms of _char cancel to about |lam| + rate each, and a root good to eps
    # of that size leaves a residual near eps (|lam| + rate)^2: gate at 16 times that
    try:
        converged = abs(_char(lam, rate, slope)) <= max(1e-10, 2.0**-48 * (abs(lam) + rate) ** 2)
    except OverflowError:  # exp(-lam) beyond the float range: a real part below -709
        converged = False
    if not converged:
        raise ParameterError("slope", f"root pair {j} did not converge")
    return lam


def _root_by_phase(rate: float, slope: float, lo: float, hi: float) -> Optional[complex]:
    # imaginary part: y + slope e^{-x} sin y = 0 gives slope e^{-x} = -y/sin(y), positive
    # in a band; substitute into the real part, bracket the scalar equation in y on 4,001
    # samples and on the strip they leave out below hi (at hi - 1e-6 2^-k, down to one
    # float spacing, where a large rate puts the root about y / rate below hi), and
    # halve the first bracket to 1e-14 in the shared loop.
    # Near hi, R reaches about 2^53, and slope / R underflows to 0 for a slope
    # below about 1e-308: log then reads -inf, the sign G tends to there.
    def G(y):
        R = -y / math.sin(y)
        q = slope / R
        return (math.log(q) if q > 0.0 else -math.inf) + rate - R * math.cos(y)

    strip = hi - 1e-6 * 2.0 ** -np.arange(64.0)
    ys = np.concatenate([np.linspace(lo + 1e-6, hi - 1e-6, 4001), np.unique(strip[(strip > hi - 1e-6) & (strip < hi)])])
    R = -ys / np.sin(ys)
    with np.errstate(divide="ignore"):
        vals = np.log(slope / R) + rate - R * np.cos(ys)
    _, mids, _ = _bisect_crossings(vals[None, :], ys, lambda _row, y: G(y), 1e-14)
    if not mids.size:
        return None
    y = float(mids[0])
    q = slope / (-y / math.sin(y))
    if q == 0.0:  # e^-x = R / slope lies past the float range: the residual gate names slope
        return complex(-math.inf, y)
    lam = complex(math.log(q), y)
    if y > hi - 1e-6:
        # in the strip -y/sin(y) amplifies the error in y by about y / (hi - y), while
        # lam itself is well conditioned: polish it with Newton steps on _char
        try:
            for _ in range(8):
                step = _char(lam, rate, slope) / (1.0 + slope * cmath.exp(-lam))
                lam -= step
                if abs(step) <= 1e-15 * abs(lam):
                    break
        except OverflowError:  # exp(-lam) beyond the float range: the residual gate names slope
            pass
        if not lo < lam.imag < hi:
            return None
    return lam


@dataclass(frozen=True)
class SpectrumReport:
    rate: float
    slope: float
    lambda0: float
    pairs: tuple  # ((re, im), ...)
    beta_window: tuple  # (exp(re lambda_1), exp(lambda0))
    residuals: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def spectrum_report(rate: float, slope: float, count: int = 5) -> SpectrumReport:
    lam0 = leading_real_root(rate, slope)
    pairs = complex_root_pairs(rate, slope, count)
    residuals = tuple(abs(_char(complex(re, im), rate, slope)) for re, im in pairs)
    return SpectrumReport(
        rate=rate,
        slope=slope,
        lambda0=lam0,
        pairs=tuple(pairs),
        beta_window=(math.exp(pairs[0][0]), math.exp(lam0)),
        residuals=residuals,
    )


def solve_theta(c: float, j: int) -> float:
    """The unique root of ``theta + c tan(theta) = 0`` in ``(2j pi - pi/2, 2j pi)``.

    Bisection to a bracket width of 1e-13 (one float spacing from band 82 on).
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if j < 1:
        raise ValueError("band index j must be a positive integer")
    lo = 2 * j * math.pi - 0.5 * math.pi
    hi = 2 * j * math.pi

    def G(th):
        return th + c * math.tan(th)

    a = lo + 1e-12 * max(1.0, lo)
    while G(a) > 0.0:  # push toward the asymptote until the sign is negative
        a = lo + (a - lo) * 0.125
    return _halve(G, a, hi, 1e-13)


def transversality(rate: float, theta: float) -> float:
    """Speed at which the crossing pair's real part moves with the time rescale."""
    return theta**2 / ((1.0 + rate) ** 2 + theta**2)


def track_crossing_root(rate: float, slope: float, theta: float, alpha: float) -> complex:
    """The root in theta's band ``((2j-1)pi, 2j pi)`` of ``lam + (1+alpha)(rate - slope e^(-lam))``:
    the band root at rate ``(1+alpha) rate`` and slope ``(1+alpha) slope``."""
    j = math.ceil(theta / (2.0 * math.pi))
    if not ((2 * j - 1) * math.pi < theta < 2 * j * math.pi and alpha > -1.0):
        raise ValueError("need theta inside a band ((2j-1)pi, 2j pi) and alpha > -1")
    return _band_root((1.0 + alpha) * rate, (1.0 + alpha) * slope, j)


@dataclass(frozen=True)
class HopfData:
    j: int
    theta: float            # angle for the limit slope
    theta_n: float          # angle for the finite-n slope
    beta_n: float           # time rescale placing the pair on the axis
    alpha: float            # extra detuning applied on top of beta_n
    a_n: float
    b_n: float
    transversality: float
    xi1: float
    xi1_n: float
    slope_n: float          # d * F'(xi1_n)
    omega_guess: float      # 2 pi / theta_n

    def to_dict(self) -> dict:
        return asdict(self)


def hopf_angles(c: float, slope_n: float, j: int) -> tuple[float, float]:
    """Angle and time rescale for a crossing pair at finite slope.

    ``theta_n`` solves ``cos(theta_n) = c / slope_n`` in the j-th band and
    ``beta_n = -theta_n / (c tan theta_n)`` rescales time so the pair sits on
    the imaginary axis.
    """
    ratio = c / slope_n
    if not 0.0 < ratio < 1.0:
        raise ValueError("crossing pair unavailable: c / slope must lie in (0, 1)")
    theta_n = 2 * j * math.pi - math.acos(ratio)
    beta_n = -theta_n / (c * math.tan(theta_n))
    return theta_n, beta_n


def hopf_data(c: float, d: float, k: float, n: int, j: int = 1, alpha: float = 0.0) -> HopfData:
    """Angles, rescaled parameters, and transversality for the n-th Hill system.

    Requires the limit-family criticality ``|c - d g'(xi1) cos(theta_j)| < 1e-8``
    and ``d F'(xi1_n) > c``; raises otherwise.
    """
    xi1 = interior_equilibrium(c, d, k)
    slope_limit = d * k * xi1 ** (k - 1.0)
    theta = solve_theta(c, j)
    gap = abs(c - slope_limit * math.cos(theta))
    if gap > 1e-8:
        raise ParameterError("c", f"criticality violated: |c - slope*cos(theta_j)| = {gap:.3e}")
    try:
        interior = stationary_points(System.smooth(c, d, k=k, n=n), ceiling=0.9).interior()
    except ValueError:
        raise ParameterError("d", "no interior equilibrium below 0.9: gain too close to the rate") from None
    xi1_n, slope_n = interior.value, interior.slope
    if slope_n <= c:
        raise ValueError("finite-n slope does not exceed the decay rate")
    theta_n, beta_n = hopf_angles(c, slope_n, j)
    a_n = (1.0 + alpha) * beta_n * c
    b_n = (1.0 + alpha) * beta_n * d
    mu_prime = transversality(beta_n * c, theta_n)
    return HopfData(
        j=j,
        theta=theta,
        theta_n=theta_n,
        beta_n=beta_n,
        alpha=alpha,
        a_n=a_n,
        b_n=b_n,
        transversality=mu_prime,
        xi1=xi1,
        xi1_n=xi1_n,
        slope_n=slope_n,
        omega_guess=2.0 * math.pi / theta_n,
    )
