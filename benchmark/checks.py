"""Correctness checks made apart from maglab.

Each `*_failures` function takes plain results and returns a list of
failure messages (empty when the result is correct).  The references are
computed here: Rayleigh-Ritz upper bounds from translated Gaussians, the
generalized eigenvalues of the 2x2 pencil (M, G) by `scipy.linalg.eigh`,
the lattice residual of a resolvent, `scipy.special.hyperu`, and closed
forms.  None of them is a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la
import scipy.special as special

RATIO_WINDOW = (0.8, 1.2)
IDENTITY_RTOL = 1e-6          # 2x2 splitting vs the ARPACK splitting
PENCIL_RTOL = 1e-6            # eig(M, G) vs (E0, E1), relative to Delta0
RANK_TOL = 0.1
RESIDUAL_TOL = 1e-3
HYPERU_RTOL = 1e-8
MHO_RTOL = 1e-12


def rayleigh_ritz_bounds(matrix, x, centers, widths, blam):
    """Upper bounds on the two lowest eigenvalues of the lattice operator
    `matrix` (on the tensor grid with axis `x`), from the span of two
    Gaussians centred at `centers`, each carrying the symmetric-gauge
    magnetic translation phase.  The best bound over `widths` and both
    phase orientations is returned; by the min-max principle every one of
    them bounds the true levels from above."""
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    best = np.array([np.inf, np.inf])
    for w in widths:
        for sign in (1.0, -1.0):
            basis = []
            for c1, c2 in centers:
                phase = np.exp(sign * 0.5j * blam * (X2 * c1 - X1 * c2))
                g = np.exp(-((X1 - c1) ** 2 + (X2 - c2) ** 2) / (2 * w * w))
                basis.append((phase * g).ravel())
            V = np.stack(basis, axis=1)
            G = V.conj().T @ V
            M = V.conj().T @ (matrix @ V)
            mu = la.eigh(0.5 * (M + M.conj().T), 0.5 * (G + G.conj().T),
                         eigvals_only=True)
            best = np.minimum(best, mu)
    return float(best[0]), float(best[1])


def ratio_failures(rows, bounds):
    """rows: dicts with lam, E0, E1, delta, abs_rho, ratio, in ascending
    lam; bounds: the Rayleigh-Ritz upper bounds (RR0, RR1) of each row."""
    out = []
    for row, (rr0, rr1) in zip(rows, bounds):
        tag = "lam=%g" % row["lam"]
        lo, hi = RATIO_WINDOW
        if not lo <= row["ratio"] <= hi:
            out.append("%s: ratio %.6g outside [%g, %g]"
                       % (tag, row["ratio"], lo, hi))
        if not (row["delta"] > 0 and row["abs_rho"] > 0):
            out.append("%s: Delta0 = %.3g, |rho0| = %.3g must be positive"
                       % (tag, row["delta"], row["abs_rho"]))
        if not np.isclose(row["delta"], row["E1"] - row["E0"], rtol=1e-9,
                          atol=0.0):
            out.append("%s: Delta0 %.17g != E1 - E0 = %.17g"
                       % (tag, row["delta"], row["E1"] - row["E0"]))
        if not np.isclose(row["ratio"], row["delta"] / (2 * row["abs_rho"]),
                          rtol=1e-12, atol=0.0):
            out.append("%s: ratio is not Delta0 / (2|rho0|)" % tag)
        # lattice kinetic part is PSD (Gershgorin) and v >= -1
        if row["E0"] < -row["lam"] ** 2:
            out.append("%s: E0 = %.6g below -lam^2" % (tag, row["E0"]))
        if row["E0"] > rr0 or row["E1"] > rr1:
            out.append("%s: (E0, E1) = (%.6g, %.6g) above the Rayleigh-Ritz "
                       "bounds (%.6g, %.6g): not the lowest levels"
                       % (tag, row["E0"], row["E1"], rr0, rr1))
    devs = [abs(r["ratio"] - 1.0) for r in rows]
    if any(d1 >= d0 for d0, d1 in zip(devs, devs[1:])):
        out.append("|ratio - 1| does not shrink as lam grows: %s" % devs)
    return out


def quasimode_failures(energies, delta, splitting, G, M, rank):
    """energies: ARPACK (E0, E1, E2); delta: ARPACK Delta0; splitting and
    (G, M): the 2x2 quasimode reduction; rank: the projector rank estimate."""
    out = []
    e0, e1 = energies[0], energies[1]
    if not e0 < e1 < energies[2]:
        out.append("energies not ascending: %s" % (list(energies),))
    if not abs(splitting - delta) <= IDENTITY_RTOL * abs(delta):
        out.append("2x2 splitting %.15g != ARPACK Delta0 %.15g"
                   % (splitting, delta))
    G = np.asarray(G, dtype=complex)
    M = np.asarray(M, dtype=complex)
    mu = la.eigh(0.5 * (M + M.conj().T), 0.5 * (G + G.conj().T),
                 eigvals_only=True)
    tol = PENCIL_RTOL * abs(delta)
    if not (abs(mu[0] - e0) <= tol and abs(mu[1] - e1) <= tol):
        out.append("eig(M, G) = (%.15g, %.15g) != (E0, E1) = (%.15g, %.15g)"
                   % (mu[0], mu[1], e0, e1))
    if rank is None or not abs(rank - 2.0) <= RANK_TOL:
        out.append("projector rank estimate %s is not 2" % rank)
    return out


def lattice_residual(matrix, z, f, g, n):
    """||(H - z) g - f|| / ||f|| over the interior nodes, two rings away
    from the Dirichlet wall."""
    resid = (matrix @ g - z * g - f).reshape(n, n)
    return float(np.linalg.norm(resid[2:-2, 2:-2]) / np.linalg.norm(f))


def landau_failures(residual):
    if not residual <= RESIDUAL_TOL:
        return ["lattice residual %.3g > %g" % (residual, RESIDUAL_TOL)]
    return []


def kernel_failures(suite_rows, rates, tricomi, mho_energy, mho_lam):
    """suite_rows: {suite: [(label, ok, detail)]}; rates: decay rates in
    ascending lam; tricomi: [(a, z, maglab U(a, 1, z))]; mho_energy:
    maglab's ground level of the oscillator with k = (1, 2), B = 1/2."""
    out = []
    for suite, rows in suite_rows.items():
        out += ["%s suite: %s FAIL (%s)" % (suite, label, detail)
                for label, ok, detail in rows if not ok]
    if not all(r > 0 for r in rates):
        out.append("decay rates not positive: %s" % (list(rates),))
    if any(r1 <= r0 for r0, r1 in zip(rates, rates[1:])):
        out.append("decay rates do not rise with lam: %s" % (list(rates),))
    for a, z, u in tricomi:
        ref = special.hyperu(a, 1.0, z)
        if not abs(u - ref) <= HYPERU_RTOL * abs(ref):
            out.append("tricomi_u(%g, 1, %g) = %.15g != hyperu %.15g"
                       % (a, z, u.real, ref))
    exact = mho_lam * np.sqrt(10.0) / 2.0
    if not abs(mho_energy - exact) <= MHO_RTOL * exact:
        out.append("MHO ground level %s != lam*sqrt(10)/2 = %.15g"
                   % (mho_energy, exact))
    return out
