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

Names are imported from their module, e.g.
`from maglab.tunneling import ratio_point`; the package root re-exports
nothing.
"""

__version__ = "1.0.0"
