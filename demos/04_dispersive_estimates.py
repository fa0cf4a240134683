"""Resonance size, the extremal thin-box configuration, and free-flow
mixed norms.

Three numerical faces of the bilinear machinery: the two-frequency
resonance is pinched between explicit constants; the thin-box triple
saturates the dyadic trilinear estimate with a shell-independent ratio;
and shell-localized packets reproduce the mixed-norm decay rates of the
free flow with flat ratios across six octaves.
"""

from kawalab import DispersionParams
from kawalab.audits import (
    KnappConfig,
    knapp_sharpness,
    linear_estimate_audit,
    resonance_size_audit,
)

disp = DispersionParams(1.0)

rep = resonance_size_audit(10 ** 6, seed=9)
print(f"resonance ratio bracket over 1e6 samples: "
      f"[{rep.min_ratio:.4f}, {rep.max_ratio:.4f}]")
print(f"  (equal-frequency value at mu=0 is 1.875; the high/low limit is 5)")

print("\nthin-box configuration across a shell sweep:")
for exp in (8, 10):
    res = knapp_sharpness(KnappConfig(2.0 ** exp, 1.0, 16.0),
                          n_samples=1 << 19, seed=9)
    print(f"  N1=2^{exp}: J/(N1^-3 L1 L2^2) = {res['j_scaling']:.2f}, "
          f"sharpness ratio {res['sharpness_ratio']:.3f}")

print("\nfree-flow mixed-norm ratios (flat = the estimate is sharp):")
res = linear_estimate_audit(disp, [4, 5, 6, 7, 8, 9], trials=4, seed=9)
for key in ("Lt6.0Lx6.0", "Lt8.0Lx4.0", "maximal_Lx4", "smoothing"):
    table = res["ratios"][key]
    row = "  ".join(f"{table[k]:.3f}" for k in sorted(table))
    print(f"  {key:12s} k=4..9: {row}   slope {res['slopes'][key]:+.3f}")
print(f"  unitarity check (Linf_t L2_x): "
      f"{res['ratios']['LtinfLx2.0'][4]:.15f}")
