"""Exact finite-dimensional distributions of one-sided reflected Brownian
motions via Fredholm determinants, cross-validated against shared-noise
Monte Carlo, with KPZ fixed-point scaling checks."""

__version__ = "0.1.0"

from .errors import ConvergenceError
from .initial_data import (Block, InitialCondition, StepProfile, blocks,
                           from_positions, narrow_wedge_approx, packed,
                           read_csv, rescale_profile)
from .hitting import (HittingLaw, LawComponent, default_grid,
                      hitting_law_exact, hitting_law_grid, hitting_law_mc,
                      law_from_blocks, q_exp_pow)
from .biorth import (HFamily, g0n_eval, gram, h_family, heat_on_poly,
                     psi_phi_eval)
from .kernel import ExtendedKernelEval, KernelSpec, kernel_eval, s_ops, \
    sbar_epi
from .fredholm import DetResult, NystromSystem, fredholm_det, rbm_probability
from .simulate import (NoiseField, PathEnsemble, gue_edge_sample, lpp_value,
                       mc_distribution, rbm_reflect, rbm_variational,
                       sample_noise)
from .scaling import (ConvergenceRow, FixedPointSpec, convergence_study,
                      fixedpoint_kernel_nw, fixedpoint_probability, s_fp,
                      scale_vars, scaled_kernels, tracy_widom_gue_cdf)
from .special import (airy_eval, airy_pair, contour_eval, hermite_eval,
                      hermite_normed_log, oscillator_psi, psi_pair)
