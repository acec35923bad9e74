"""Conical metrics for unbalanced optimal transport: geodesics and invariants."""

from .bb import BBPath, BBResult, bb_action, from_small_trace
from .cone import (BaseManifold, ConeProblem, ConeState, circle_base, cone_line,
                   cone_ray, flat_base, integrate_cone, radial_mass_geodesic,
                   scaled_base)
from .gaussian import (AffineConnection, AffineGaussian, GaussianCotangentState,
                       affine_geodesic, base_metric_eval, connect_affine,
                       geodesic_ray, geodesic_rhs, group_metric_eval, hamiltonian,
                       integrate_geodesic, integrate_geodesics,
                       legendre_momentum, lyapunov_solve,
                       mccann_geodesic, shoot_bvp, spd_base,
                       submersion_consistency)
from .pde import (Grid1D, PdeState, fisher_rao_cone_geodesic, gdiv_metric_eval,
                  hamiltonian_small, hamiltonian_wfr, integrate_pde, integrate_pdes,
                  small_metric_eval, small_rhs, solve_potential,
                  state_from_velocity, total_mass, wfr_rhs, xi_of)
from .trace import GeodesicTrace, mass_acceleration, mass_quadratic_fit, \
    relative_energy_drift

__version__ = "0.1.0"
