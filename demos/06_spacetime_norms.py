"""Space-time diagnostics: modulation shells and the bilinear operator.

A windowed free wave concentrates on the lowest modulation shells around
the characteristic surface tau = omega(xi); the Duhamel bilinear operator
of two single-mode waves lands exactly on the doubled mode with a phase
integral known in closed form.
"""

import numpy as np

from kawalab import DispersionParams, Grid, SpectralField, resonance
from kawalab.dyadic import eta0, eta_k
from kawalab.spacetime import (
    SpaceTimeField,
    duhamel_bilinear,
    fbar_norm,
    free_trajectory,
    uniform_times,
    xk_norm,
    xsb_norm,
)

disp = DispersionParams(1.0)
grid = Grid(16 * np.pi, 256)

rng = np.random.default_rng(2)
phi = SpectralField.random_real(grid, rng,
                                envelope=lambda a: np.sqrt(eta_k(a, 1)))
phi = phi * (1.0 / phi.l2_norm())
times = uniform_times(-4.0, 4.0, 4096)
_, coeffs = free_trajectory(phi, disp, times)
F = SpaceTimeField.from_samples(grid, times, coeffs)

mod = F.tau[:, None] - (disp.mu * grid.xi ** 3 - grid.xi ** 5)[None, :]
mag2 = np.abs(F.coeffs2d) ** 2
share = np.sum(mag2 * eta0(mod / 4.0)) / np.sum(mag2)
print(f"windowed free flow: {share:.1%} of the mass sits in modulation "
      f"shells j <= 2")
print(f"  weighted norms: s,b = (0,0): {xsb_norm(F, 0, 0, disp):.4f}   "
      f"(-7/4, 1/2): {xsb_norm(F, -1.75, 0.5, disp):.4f}")
print(f"  shell-1 dyadic norm: {xk_norm(F, 1, disp):.4f}")
print(f"  resolution-space norm at s = -7/4: "
      f"{fbar_norm(grid, times, coeffs, -1.75, disp):.4f}")

m0, amp = 8, 0.1
pair = SpectralField.from_mode_dict(grid, {m0: amp, -m0: amp})
times = uniform_times(-2.0, 2.0, 1024)
_, cu = free_trajectory(pair, disp, times)
res = duhamel_bilinear(grid, times, cu, cu, disp)
xi0 = m0 * grid.dxi
idx = int(np.argmin(np.abs(res["times"] - 1.0)))
theta = float(resonance(xi0, xi0, disp))
omega2 = disp.mu * (2 * xi0) ** 3 - (2 * xi0) ** 5
expected = (1j * 2 * xi0 * amp * amp * grid.dxi / np.sqrt(2 * np.pi)
            * np.exp(1j * omega2 * 1.0)
            * (np.exp(1j * theta * 1.0) - 1.0) / (1j * theta))
got = res["coeffs"][idx, grid.index_of_mode(2 * m0)]
print(f"\nbilinear operator on a single mode pair:")
print(f"  quadrature self-change {res['quadrature_change']:.2e}")
print(f"  doubled-mode coefficient vs closed form: "
      f"{abs(got - expected) / abs(expected):.2e} relative")
