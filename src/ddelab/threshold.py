"""Critical-gain machinery for the hard-cutoff system.

For fixed decay rate ``c`` the probe solution starts from the pure-decay
profile ``exp(-c t)`` on its first delay interval.  Below a critical gain the
probe stays under the cutoff and collapses to zero; above it the probe
returns to the cutoff in finite time.  The two outcomes are decided in finite
time by, respectively, a whole delay segment falling under the interior
equilibrium (monotone trapping) and an event-located first contact with the
cutoff.  A probe is marched one unit interval at a time and stops at the
unit that decides it.  A search on the gain, steered by the saddle's log
law, brackets the critical value.

The envelope functions bound every sub- and super-cutoff excursion of the
plus branch, yielding the invariant band, the recurrence gap, and the
envelope's margin ledger (items 1-4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .dde import ParameterError, System, _march, integrate
from .history import HistoryFunction
from .nonlinearity import PowerCutoff
from .spectrum import interior_equilibrium, leading_real_root

__all__ = [
    "ZClassification",
    "DStarResult",
    "EnvelopeData",
    "classify_zd",
    "find_dstar",
    "envelopes",
]

IN_D = "IN_D"
HITS_ONE = "HITS_ONE"
UNRESOLVED = "UNRESOLVED"

_PROBE_N = 200  # steps per unit interval of every probe integration


@dataclass(frozen=True)
class ZClassification:
    """Fate of the decay-profile probe at gain ``d``.

    ``HITS_ONE`` carries the first-contact time ``tau0`` (probe time axis,
    where the decay profile occupies [0, 1]); ``IN_D`` carries the time at
    which a whole delay segment fell below the interior equilibrium.
    ``max_value`` is the largest node value over the integrated stretch, up
    to the unit interval that decided the probe.
    """

    verdict: str
    c: float
    d: float
    tau0: Optional[float] = None
    certificate_time: Optional[float] = None
    max_value: Optional[float] = None


def classify_zd(c: float, d: float, k: float = 2.0, T_max: float = 400.0) -> ZClassification:
    """Classify the probe started from the decay profile ``exp(-c t)``.

    The probe time axis has the profile on [0, 1]; internally the integration
    starts at the profile's right end, so reported times are shifted by one.
    The probe is marched one unit interval at a time up to ``T_max - 1`` and
    stops at the first unit that decides it: an up-crossing of the cutoff
    recorded by the march, or a whole delay segment below the interior
    equilibrium, certified once the last node at or above it lies more than
    ``1 + 2/N`` before the unit's end (``N = _PROBE_N`` steps per unit).
    Monotone trapping keeps the solution below the equilibrium after such a
    segment, so that node is final.  The march only appends crossings, so
    each unit reads just those appended since the unit before.
    """
    if not (c > 0 and d >= c):
        raise ValueError("need d >= c > 0")
    system = System.limit(c, d, k=k)
    history = HistoryFunction.exp_decay(c)
    xi1 = interior_equilibrium(c, d, k) if d > c * (1.0 + 1e-12) else None
    T = T_max - 1.0
    crossings: list = []
    max_val = 0.0
    last_above = 0.0  # time of the last node at or above xi1, 0 if none
    seen = 0  # crossings before this index were read at an earlier unit
    for unit, (ts, xs, *_) in enumerate(_march(system, history, T, _PROBE_N, crossings)):
        max_val = max(max_val, float(xs.max()))
        for tc, up in crossings[seen:]:
            if up and tc >= 0.0:
                return ZClassification(HITS_ONE, c, d, tau0=tc + 1.0, max_value=max_val)
        seen = len(crossings)
        if xi1 is not None:
            above = np.flatnonzero(xs >= xi1 * (1.0 - 1e-12))
            if above.size:
                last_above = float(ts[above[-1]])
            t_cert = last_above + 1.0 + 2.0 / _PROBE_N
            if t_cert <= min(unit + 1.0, T):
                return ZClassification(IN_D, c, d, certificate_time=t_cert + 1.0, max_value=max_val)
    return ZClassification(UNRESOLVED, c, d, max_value=max_val)


@dataclass(frozen=True)
class DStarResult:
    """The critical-gain bracket, its probe rows and the log-law evidence.

    ``lambda0`` is the leading root at ``xi1`` (None for ``k <= 1``);
    ``law_slope`` is ``_law_slope``'s fit, None with fewer than two contacts
    to fit.  A slope near ``1/lambda0`` is consistent with a connection to
    ``xi1`` at d*.  ``law_steps`` and ``midpoints`` count the probes after
    the bracket was found that the law placed and that halved it.
    """

    estimate: float
    lo: float
    hi: float
    history: tuple    # one (d, verdict, deciding time or None) row per probe
    lambda0: Optional[float]
    law_slope: Optional[float]
    law_steps: int
    midpoints: int

    @property
    def unresolved(self) -> tuple:
        """The gains whose probe was unresolved, in probe order."""
        return tuple(d for d, verdict, _ in self.history if verdict == UNRESOLVED)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_dict(self) -> dict:
        return {
            "dstar": self.estimate,
            "bracket": [self.lo, self.hi],
            "history": [list(h) for h in self.history],
            "unresolved": list(self.unresolved),
            "lambda0": self.lambda0,
            "law_slope": self.law_slope,
            "law_steps": self.law_steps,
            "midpoints": self.midpoints,
        }


_BRACKET_LADDER = (1.1, 1.3, 1.6, 2.0, 2.5, 3.2, 4.0, 5.5, 8.0, 12.0, 20.0, 50.0, 100.0)
_MIN_EXCESS = 0.1 * 2.0**-20  # the smallest d/c - 1 probed below the ladder


def _law_estimate(history: list, lam0: float) -> Optional[float]:
    """The gain where the log law puts d*, from the two contacts of smallest gain.

    Near d* the contact time is ``-(1/lam0) ln(d - d*)`` plus a constant, so
    ``(d - d*) exp(lam0 tau0)`` is the same at both contacts.  The weights
    are scaled by the larger time, so nothing overflows.  None with fewer
    than two contacts or when the two weights are equal.
    """
    hits = sorted((d, t) for d, verdict, t in history if verdict == HITS_ONE)[:2]
    if len(hits) < 2:
        return None
    (d1, t1), (d2, t2) = hits
    top = max(t1, t2)
    w1, w2 = math.exp(lam0 * (t1 - top)), math.exp(lam0 * (t2 - top))
    if w1 == w2:
        return None
    return (d1 * w1 - d2 * w2) / (w1 - w2)


def _law_slope(history: list, lo: float, hi: float, tol: float) -> Optional[float]:
    """Least-squares slope of tau0 against ``-ln(d - d*)`` over the contacts at least ``10 tol`` above ``hi``."""
    dstar = 0.5 * (lo + hi)
    pts = [(-math.log(d - dstar), t) for d, verdict, t in history if verdict == HITS_ONE and d - hi >= 10.0 * tol]
    if len(pts) < 2:
        return None
    x, y = np.array(pts).T
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def find_dstar(
    c: float,
    bracket: Optional[tuple] = None,
    tol: float = 1e-6,
    T_max: float = 400.0,
    k: float = 2.0,
) -> DStarResult:
    """Bracket the critical gain, probing where the saddle's log law puts it.

    The bracket invariant (below: collapse certificate, above: cutoff
    contact) is maintained throughout.  Each probe is marched once, to
    ``4 T_max``, and logs one ``history`` row ``(d, verdict, t)``: ``t`` is
    the time that decided it (``tau0`` or ``certificate_time``), None when
    it is unresolved.  Without ``bracket`` the gains ``c * _BRACKET_LADDER``
    are probed until one reaches the cutoff; the last rung below it that
    collapsed is the lower end.  When none did (for small ``c`` already
    ``1.1c`` reaches the cutoff), the excess ``d/c - 1`` is halved from 0.1
    until a probe collapses, down to ``_MIN_EXCESS``.
    ``ParameterError("c")`` is raised when no rung reaches the cutoff or no
    halving collapses.

    Then each step probes one gain inside the bracket.  At d* the probe lies
    on the stable manifold of the saddle ``xi1``, so the contact time grows
    like ``-(1/lambda0) ln(d - d*)``, with ``lambda0`` the leading root at
    ``xi1`` (slope ``k c`` for every d); ``_law_estimate`` solves that law
    for d* from the two contacts of smallest gain.  The step probes a margin
    ``eta`` above the estimate, so a contact moves ``hi`` close to d*: after
    each contact ``eta`` is an eighth of ``hi``'s distance from the next
    estimate, and it grows fourfold after a proposal that collapses, never
    below ``tol/4``.  Once the estimate lies within ``0.75 tol`` of ``hi``,
    the step probes ``hi - 0.9 tol``, which closes the bracket when it
    collapses.  The step takes the midpoint instead when
    there is no estimate, it lies outside the bracket, the proposal lies
    within ``tol/4`` of an end, ``k <= 1`` (no saddle), three proposals in a
    row gave the verdict the estimate did not predict, or the probes after
    the bracket was found number the halvings it needs: the search then
    takes at most twice bisection's count.  An unresolved probe ends the
    search, and the bracket is reported as it stands, with the gain listed
    in ``unresolved``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    history: list[tuple] = []

    def classify(d: float) -> str:
        res = classify_zd(c, d, k=k, T_max=4.0 * T_max)
        history.append((d, res.verdict, res.tau0 if res.verdict == HITS_ONE else res.certificate_time))
        return res.verdict

    if bracket is None:
        lo = hi = None
        for mult in _BRACKET_LADDER:
            d = c * mult
            v = classify(d)
            if v == HITS_ONE:
                hi = d
                break
            if v == IN_D:
                lo = d
        if hi is None:
            raise ParameterError("c", f"no probe gain up to {_BRACKET_LADDER[-1]:g}c reaches the cutoff")
        excess = _BRACKET_LADDER[0] - 1.0
        while lo is None and excess > _MIN_EXCESS:
            excess *= 0.5
            d = c * (1.0 + excess)
            v = classify(d)
            if v == IN_D:
                lo = d
            elif v == HITS_ONE:
                hi = d
        if lo is None:
            raise ParameterError("c", f"no probe gain down to c(1 + {_MIN_EXCESS:.3g}) certifies collapse")
    else:
        lo, hi = bracket
        if classify(lo) != IN_D:
            raise ParameterError("bracket", "lower end does not certify collapse")
        if classify(hi) != HITS_ONE:
            raise ParameterError("bracket", "upper end does not reach the cutoff")

    lam0 = leading_real_root(c, k * c) if k > 1.0 else None
    found = len(history)
    cap = found + (math.ceil(math.log2((hi - lo) / tol)) if hi - lo > tol else 0)
    law_steps = misses = 0
    eta = None  # the margin above the estimate; None: an eighth of hi's distance from the next estimate
    while hi - lo > tol:
        mid = lo + 0.5 * (hi - lo)
        guess = _law_estimate(history, lam0) if lam0 is not None and misses < 3 and len(history) < cap else None
        law = guess is not None and lo < guess < hi
        if law:
            if eta is None:
                eta = 0.125 * (hi - guess)
            d = max(hi - 0.9 * tol, mid) if hi - guess <= 0.75 * tol else guess + max(eta, 0.25 * tol)
            law = lo + 0.25 * tol <= d <= hi - 0.25 * tol
        if not law:
            d = mid
        v = classify(d)
        if law:
            law_steps += 1
            misses = 0 if (v == HITS_ONE) == (d > guess) else misses + 1
        if v == IN_D:
            lo = d
            if law:
                eta *= 4.0
        elif v == HITS_ONE:
            hi = d
            eta = None
        else:
            break  # an unresolved probe; report the bracket as it stands
    return DStarResult(
        estimate=0.5 * (lo + hi), lo=lo, hi=hi, history=tuple(history), lambda0=lam0,
        law_slope=_law_slope(history, lo, hi, tol), law_steps=law_steps,
        midpoints=len(history) - found - law_steps,
    )


@dataclass(frozen=True)
class EnvelopeData:
    """Envelope functions, invariant band, and the margin ledger.

    ``w0`` bounds sub-cutoff excursions from below (computed at the smaller
    gain ``d0``), ``w1`` bounds super-cutoff excursions from above (closed
    form at ``d1``, which equals ``d``).  ``m0 <= x <= m1`` is the band,
    ``sigma`` the recurrence gap for the limit system and ``sigma_n`` its
    finite-n counterpart with the band ``[m0_n, m1_n]``.
    """

    c: float
    d: float
    d0: float
    d1: float
    tau0: float
    tau1: float
    m0: float
    m1: float
    sigma: float
    delta: float
    big_delta: float
    k1: float
    k2: float
    nu1: float
    m0_n: float
    m1_n: float
    sigma_n: float
    ledger: dict
    w0: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)
    w1: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)

    def to_dict(self) -> dict:
        """Every field but the functions ``w0`` and ``w1``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("w0", "w1")}


def envelopes(c: float, d: float, d0: float, k: float = 2.0) -> EnvelopeData:
    """Build the envelope pair and the margin ledger for gains ``d > d0``.

    ``d0`` must exceed the critical gain (the lower envelope must reach the
    cutoff); the upper envelope is taken at ``d``.
    """
    if not d > d0 > c:
        raise ValueError("need d > d0 > c (and d0 above the critical gain)")
    g = PowerCutoff(k=k)
    res0 = classify_zd(c, d0, k=k, T_max=600.0)
    if res0.verdict != HITS_ONE:
        raise ParameterError("d0", "lower envelope gain does not reach the cutoff")
    tau0 = res0.tau0
    system0 = System.limit(c, d0, k=k)
    traj0 = integrate(system0, HistoryFunction.exp_decay(c), tau0 - 1.0 + 0.5, N=_PROBE_N)

    def w0(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        early = t <= 1.0
        out[early] = np.exp(-c * t[early])
        out[~early] = traj0.eval_many(t[~early] - 1.0)
        return out

    tau1 = 1.0 + math.log((d / c) * (1.0 - math.exp(-c)) + math.exp(-c)) / c

    def w1(t):
        t = np.asarray(t, dtype=float)
        e = np.exp(-c * t)
        rising = (d / c) * (1.0 - e) + e
        top = (d / c) * (1.0 - math.exp(-c)) + math.exp(-c)
        falling = np.exp(-c * (t - 1.0)) * top
        return np.where(t <= 1.0, rising, falling)

    grid0 = np.linspace(0.0, tau0, 4001)
    w0_min = float(np.min(w0(grid0)))
    xi1 = interior_equilibrium(c, d, k)
    m0 = min(xi1, w0_min)
    m1 = d / c
    sigma = max(tau0, tau1)

    # largest margin window with c*Delta < g(exp(-c*Delta)) / 2
    dg = np.linspace(1e-4, 0.9999, 10_000)
    ok = c * dg < 0.5 * g.value(np.exp(-c * dg))
    if not np.any(ok):
        raise ValueError("no admissible margin window; parameters too extreme")
    big_delta = float(dg[ok][-1])
    k1 = 4.0 + 2.0 * d * k  # sup of g' = k x^(k-1) on [0, 1] is k, as interior_equilibrium required k > 1
    k2 = 2.0 + big_delta * k1

    # bound 3 integrates e^{cs} g(e^{-c(s-1)}) over [1, 1 + Delta], where g(x) = x^k
    # (x <= 1): the integrand is e^{ck} e^{c(1-k)s}, and interior_equilibrium required k > 1
    integral = math.exp(c) * math.expm1(c * (1.0 - k) * big_delta) / (c * (1.0 - k))
    bounds = {
        "1": (d - d0) * g.value(m0 / 2.0) / k1,
        "2": (d - d0) * g.value(math.exp(-c * big_delta)) / (2.0 * k1),
        "3": (d - d0) / k2 * math.exp(-c * (1.0 + big_delta)) * integral,
        "4": min(d / c - 1.0, c / 2.0),
        "cap": m0 / 4.0,
    }
    delta = 0.9 * min(bounds.values())
    if delta <= 0:
        raise ValueError("no admissible margin; shrink d - d0")
    nu1 = 1.0 + (2.0 / (c * delta)) * (2.0 * d / c - 1.0)
    ledger = {name: {"bound": val, "delta": delta, "ok": bool(delta < val)} for name, val in bounds.items()}
    return EnvelopeData(
        c=c, d=d, d0=d0, d1=d, tau0=tau0, tau1=tau1, m0=m0, m1=m1, sigma=sigma,
        delta=delta, big_delta=big_delta, k1=k1, k2=k2, nu1=nu1,
        m0_n=m0 / 2.0, m1_n=2.0 * d / c, sigma_n=max(tau0, nu1),
        ledger=ledger, w0=w0, w1=w1,
    )
