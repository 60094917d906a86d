"""Numerical laboratory for 2D magnetic double-well Schrodinger operators.

Modules:
  grid_model      lattice discretization, wells, magnetic translations
  spectral        eigensolvers and Riesz spectral projectors
  mho_kernels     magnetic harmonic oscillator closed forms
  landau_kernels  Landau resolvent/heat kernels and decay fits
  tunneling       hopping coefficient rho0, splitting Delta0, 2x2 reduction
  blaschke        Blaschke/Herglotz lower-bound certificates
  partition       dyadic radial partition of unity
  cli             configuration-driven experiment runner
"""

from .grid_model import (Field, Grid2D, ModelParams, SparseHermitianOp,
                         WellSpec, build_operator, build_well, choose_grid,
                         field_from_flat, magnetic_translate, plaquette_phases,
                         well_values)
from .spectral import Contour, SpectralResult, lowest_eigs, riesz_project
from .mho_kernels import (MHOParams, RegionBounds, d_bound, discretize_mho,
                          dual_ground_state, ground_state,
                          ground_state_energy, heat_kernel, mho_params,
                          modified_green)
from .landau_kernels import (DecayFit, apply_landau_resolvent,
                             gamma_tricomi_u, landau_heat_kernel,
                             landau_resolvent_kernel, offdiag_decay_rate,
                             resolvent_norm_envelope, tricomi_u)
from .tunneling import (HoppingResult, QuasimodePair, RatioRow,
                        SplittingResult, TwoByTwoReduction, gram_and_m,
                        hopping_coefficient, mho_reference, quasimodes,
                        ratio_point, reduction_from_matrices,
                        single_well_ground, splitting_direct)
from .blaschke import (BlaschkeZeroSet, HerglotzMeasure,
                       LowerBoundCertificate, avg_mfun, avg_neg_log,
                       certify_lower_bound, estimate_mu0, factor,
                       herglotz_eval, mfun, normalizing_phase, product,
                       synthetic_f, wedge_bound, wedge_pullback)
from .partition import (DyadicPartition, PartitionReport, build_partition,
                        smoothstep, smoothstep_coeffs, verify_partition)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
