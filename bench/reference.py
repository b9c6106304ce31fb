"""Reference computations made apart from ddelab, used to check its outputs.

Nothing here imports ddelab.  The delay equation is solved by the method of
steps with ``scipy.integrate.solve_ivp``, one unit interval at a time, reading
the delayed term from the previous interval's dense output.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

IN_D = "IN_D"
HITS_ONE = "HITS_ONE"
UNRESOLVED = "UNRESOLVED"


def method_of_steps(
    rhs: Callable[[float, float], float],
    history: Callable[[float], float],
    T: float,
    event: Optional[Callable] = None,
    stop: Optional[Callable] = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    method: str = "DOP853",
):
    """Solve ``x'(t) = rhs(x(t), x(t-1))`` from ``history`` on [-1, 0].

    Returns ``(units, t_event)``: ``units`` holds ``(t0, t1, dense)`` per unit
    interval; integration ends at ``T``, at the first terminal ``event``, or
    after the first unit for which ``stop(t0, t1, dense)`` is true.
    """
    delayed = history
    x0 = float(history(0.0))
    units = []
    t0 = 0.0
    while t0 < T - 1e-12:
        t1 = min(t0 + 1.0, T)
        lag = delayed

        def f(t, y, lag=lag):
            return [rhs(y[0], float(lag(t - 1.0)))]

        sol = solve_ivp(f, (t0, t1), [x0], method=method, rtol=rtol, atol=atol,
                        dense_output=True, events=event)
        dense = sol.sol
        units.append((t0, t1, dense))
        if sol.status == 1:
            return units, float(sol.t_events[0][0])
        if stop is not None and stop(t0, t1, dense):
            return units, None
        delayed = lambda t, dense=dense: dense(t)[0]  # noqa: E731
        x0 = float(sol.y[0, -1])
        t0 = t1
    return units, None


def probe_verdict(c: float, d: float, k: float = 2.0, T_max: float = 400.0) -> str:
    """Fate of the limit-system probe started from ``exp(-c (1 + s))``.

    ``HITS_ONE`` when the solution reaches the cutoff 1; ``IN_D`` when a whole
    unit interval lies below the interior equilibrium ``(c/d)^(1/(k-1))``,
    from where the solution can only decay.  Below the cutoff the feedback is
    ``x^k``, so no cutoff handling is needed before the first contact.
    """
    xi = (c / d) ** (1.0 / (k - 1.0))

    def rhs(x, xd):
        return -c * x + d * (max(xd, 0.0) ** k if xd <= 1.0 else 0.0)

    def hit(t, y):
        return y[0] - 1.0

    hit.terminal = True
    hit.direction = 1

    def below(t0, t1, dense):
        return t1 - t0 > 1.0 - 1e-9 and float(np.max(dense(np.linspace(t0, t1, 401))[0])) < xi

    units, t_hit = method_of_steps(rhs, lambda s: math.exp(-c * (1.0 + s)), T_max, event=hit, stop=below)
    if t_hit is not None:
        return HITS_ONE
    if below(*units[-1]):
        return IN_D
    return UNRESOLVED


def exp_decay_first_unit(t: np.ndarray, c: float, d: float) -> np.ndarray:
    """Closed form of the exp-decay probe on [0, 1] (feedback ``x^2``)."""
    t = np.asarray(t, dtype=float)
    return np.exp(-c * (t + 1.0)) + (d / c) * (np.exp(-c * t) - np.exp(-2.0 * c * t))


def hill(x: np.ndarray, k: float, n: float) -> np.ndarray:
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    return x ** k / (1.0 + x ** n)


def fourier_residual(xs: np.ndarray, omega: float, a: float, b: float, k: float, n: float) -> float:
    """Max defect of ``x' = -a x + b f(x(t-1))`` on equispaced samples of one period.

    The samples ``xs[j] = x(j * omega / len(xs))`` define a trigonometric
    interpolant; its derivative and its shift by the unit delay are exact
    operations on the Fourier coefficients.
    """
    xs = np.asarray(xs, dtype=float)
    m = xs.size
    coef = np.fft.fft(xs)
    w = 2.0 * np.pi * np.fft.fftfreq(m, d=1.0 / m) / omega
    deriv = np.real(np.fft.ifft(coef * 1j * w))
    delayed = np.real(np.fft.ifft(coef * np.exp(-1j * w)))
    return float(np.max(np.abs(deriv + a * xs - b * hill(delayed, k, n))))


def smooth_run(a: float, b: float, k: float, n: float, x0: float, T: float, window: float, dt: float):
    """Solve the smooth system from the constant history ``x0`` to ``T``.

    Returns the uniform grid on ``[T - window, T)`` with spacing ``dt`` and the
    solution on it.
    """
    units, _ = method_of_steps(
        lambda x, xd: -a * x + b * float(hill(xd, k, n)),
        lambda s: x0, T, rtol=1e-8, atol=1e-10, method="RK45",
    )
    tt = np.arange(T - window, T, dt)
    xs = np.empty_like(tt)
    for t0, t1, dense in units:
        sel = (tt >= t0) & (tt < t1)
        if np.any(sel):
            xs[sel] = dense(tt[sel])[0]
    return tt, xs


def autocorrelation_period(xs: np.ndarray, dt: float) -> float:
    """Period of a sampled oscillation from its autocorrelation.

    Uses the difference function ``D(L) = mean_t (x[t+L] - x[t])**2``, which
    is the two overlapping segments' energies minus twice the autocorrelation
    at lag L.  For a periodic signal it vanishes at the period whatever the
    window, so, unlike the autocorrelation peak, its minimum carries no bias
    from a window holding a fractional number of periods.  The first local
    minimum below 10% of the largest value is refined by a parabola, which
    is exact near a zero of ``D``.
    """
    x = np.asarray(xs, dtype=float) - float(np.mean(xs))
    m = x.size
    spec = np.fft.rfft(x, 2 * m)
    corr = np.fft.irfft(spec * np.conj(spec))[:m]
    energy = np.concatenate([[0.0], np.cumsum(x * x)])
    lags = np.arange(m)
    diff = (energy[m] - energy[lags] + energy[m - lags] - 2.0 * corr) / (m - lags)
    half = m // 2
    top = float(np.max(diff[:half]))
    for j in range(1, half - 1):
        if diff[j] < 0.1 * top and diff[j] <= diff[j - 1] and diff[j] <= diff[j + 1]:
            y0, y1, y2 = diff[j - 1], diff[j], diff[j + 1]
            return (j + 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)) * dt
    raise ValueError("no period found in the sampled window")
