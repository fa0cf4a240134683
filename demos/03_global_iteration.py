"""Rescale-and-iterate: the weighted mass stays inside the bootstrap box.

``imethod.bootstrap_datum`` draws a rough datum (seed 108, envelope
<xi>^1.25) in a box sized for threshold N = 64 and normalises it so that
the scaling transform shrinks its smoothed mass to eps0 at lam = 1/N;
twenty unit-time steps later it has moved by parts in 1e6, far inside
the 4*eps0^2 bootstrap bound that drives the iteration to large times.
This is acceptance criterion a08 and ``kawalab gwp --seed 108`` at its
defaults.
"""

from kawalab import DispersionParams
from kawalab.imethod import GwpConfig, bootstrap_datum, gwp_experiment

disp = DispersionParams(1.0)
config = GwpConfig(threshold=64.0, eps0=0.1, steps=20)
datum = bootstrap_datum(config, 512, 108, 1.25)
result = gwp_experiment(config, datum, disp)
print(f"scaling parameter lam = {result.lam:.6f} (target {1.0 / config.threshold:.6f})")
print(f"bootstrap bound 4*eps0^2 = {4 * config.eps0 ** 2}")
for tau, e2 in zip(result.times, result.e2):
    print(f"  tau={tau:4.0f}  E2={e2:.8f}")
print(f"all steps inside the bound: {result.all_passed}")
print(f"growth-norm exponent in rescaled time: {result.growth_exponent:+.4f} "
      f"(global-time envelope {result.growth_reference:.4f})")
