"""Coherent-state quantization of the constrained double harmonic
oscillator: projection onto the number sector, spin coherent states on the
reduced phase space, upper/lower symbol calculus, and the deparameterized
quantum clock with its correlation analysis.
"""

__version__ = "0.1.0"

from .classical import (ClassicalConfig, classical_clock_readout,
                        constraint_residual, reduced_coordinate, trajectory)
from .clock import (amplitude_correlation, classical_limit_check, clock_operator,
                    clock_symbol_q1, deparameterize, phase_correlation)
from .coherent import (factor_gauge_phase, overlap, project_coherent,
                       radial_weight, resolution_of_unity, su2_coherent)
from .errors import (ChartSingularityError, ClockRangeError,
                     NullPhysicalSubspaceError, SpinclockError)
from .fock import casimir, constraint_eigencheck, spin_operators
from .grids import RadialGrid, SphereGrid, radial_grid, sphere_grid
from .symbols import (project_lower_symbol, q1_position_symbol, q2_position_symbol,
                      reconstruct_operator, spin_symbols_closed_form,
                      upper_symbol)

__all__ = [
    "ClassicalConfig", "classical_clock_readout", "constraint_residual",
    "reduced_coordinate", "trajectory",
    "amplitude_correlation", "classical_limit_check", "clock_operator",
    "clock_symbol_q1", "deparameterize", "phase_correlation",
    "factor_gauge_phase", "overlap", "project_coherent", "radial_weight",
    "resolution_of_unity", "su2_coherent",
    "ChartSingularityError", "ClockRangeError", "NullPhysicalSubspaceError",
    "SpinclockError",
    "casimir", "constraint_eigencheck", "spin_operators",
    "RadialGrid", "SphereGrid", "radial_grid", "sphere_grid",
    "project_lower_symbol", "q1_position_symbol", "q2_position_symbol", "reconstruct_operator",
    "spin_symbols_closed_form", "upper_symbol",
]
