"""Conical metrics for unbalanced optimal transport: geodesics and invariants."""

from .bb import BBPath, BBResult, bb_action, from_small_trace
from .cone import (BaseManifold, ConeProblem, ConeState, circle_base,
                   cone_geodesic_ray, cone_line, cone_line_start, cone_ray, flat_base,
                   integrate_cone, scaled_base)
from .gaussian import (AffineConnection, AffineGaussian, GaussianCotangentState,
                       base_metric_eval, connect_affine, geodesic_ray,
                       group_metric_eval, hamiltonian, integrate_geodesic,
                       integrate_geodesics, lyapunov_solve, mccann_geodesic,
                       shoot_bvp, spd_base, submersion_consistency)
from .pde import (Grid1D, PdeState, fisher_rao_cone_geodesic, gdiv_metric_eval,
                  hamiltonian_small, hamiltonian_wfr, integrate_pde, integrate_pdes,
                  small_metric_eval, small_rhs, solve_potential, total_mass, xi_of)
from .trace import GeodesicTrace, mass_quadratic_fit, relative_energy_drift

__version__ = "0.1.0"
