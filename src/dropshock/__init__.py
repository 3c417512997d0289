"""Exact Riemann solutions and a finite-volume solver for pressureless
gas dynamics with linear drag (the Eulerian droplet model).

A decreasing velocity jump concentrates mass into a delta shock whose
weight, speed and trajectory have closed forms; an increasing jump opens
a vacuum bounded by two contact discontinuities.  The package carries the
closed forms, the point-mass balance ODEs and their integrator, a
positivity-preserving kinetic finite-volume scheme, and the oracle
machinery used to validate all of it.
"""

from .core import (
    BlowupError,
    ModelParams,
    RiemannData,
    SmoothProfile,
    characteristic_position,
    cubic_profile,
    decay_integral,
    fan_velocity,
    relax_velocity,
    tanh_profile,
)
from .burgers import BlowupReport, blowup, smooth_fields
from .droplet import (
    ContactSolution,
    DeltaShockSolution,
    DeltaVariant,
    VacuumSolution,
    initial_shock_speed,
    solve,
    weight_lower_bound,
)
from .grh import GrhMonitorError, GrhState, GrhTrajectory, LimitStates, integrate
from .fv import (
    FieldState,
    Grid1D,
    SolverAbort,
    advance,
    kinetic_flux,
    reconstruct_velocity,
    shock_mass,
    source_step,
)
from .validation import (
    BumpTestFunction,
    ErrorReport,
    compare,
    first_crossing_time,
    sample_exact,
    vacuum_extent,
    weak_residual,
)

__version__ = "0.1.0"
