"""ddelab: a numerical laboratory for scalar delay equations with unimodal
feedback and their hard-cutoff limit.

Core objects: ``System`` (parameters plus nonlinearity), ``HistoryFunction``
(states), ``integrate`` (method-of-steps solver with exact event handling),
plus analysis layers for equilibria and spectra, unstable-branch shooting,
the critical-gain search, periodic orbits and Floquet diagnostics, and a
scenario-driven CLI that emits deterministic CSV/JSON/SVG artifacts.
"""

__version__ = "0.1.0"

from .dde import (
    BoundsReport,
    System,
    Trajectory,
    check_bounds,
    integrate,
    segment_at,
)
from .history import HistoryFunction
from .manifold import BranchSolution, convergence_table, exp_segment_check, shoot_branch
from .nonlinearity import Hill, PowerCutoff
from .periodic import (
    ConnectionDiagram,
    FloquetReport,
    PeriodicOrbit,
    connection_diagram,
    detect_periodic,
    hopf_orbit_search,
    monodromy_multipliers,
)
from .spectrum import (
    HopfData,
    SpectrumReport,
    complex_root_pairs,
    hopf_data,
    interior_equilibrium,
    leading_real_root,
    solve_theta,
    spectrum_report,
    stationary_points,
    track_crossing_root,
    transversality,
)
from .threshold import (
    DStarResult,
    EnvelopeData,
    ZClassification,
    classify_zd,
    envelopes,
    find_dstar,
)

__all__ = [name for name in dir() if not name.startswith("_")]
