"""Ratio and log-ratio coordinates on the simplex.

A composition keeps only relative information, so one coordinate is
redundant.  Dividing by the last component (the ratio map) or taking
logs of those ratios (the additive log-ratio map) removes it; both maps
are invertible and carry closed-form Jacobian determinants.
"""

import numpy as np

from countcomp import (
    Composition,
    LogRatioVector,
    RatioVector,
    log_det_jacobian_log_ratio_inverse,
    log_det_jacobian_ratio_inverse,
    log_ratio_forward,
    log_ratio_inverse,
    ratio_forward,
    ratio_inverse,
)

x = Composition([0.2, 0.3, 0.5])
print("composition x          :", x.entries)

# Forward maps: n parts become n-1 coordinates.
y = ratio_forward(x)
print("ratio coordinates y    :", y.entries, " z =", y.z)
ly = log_ratio_forward(x)
print("log-ratio coordinates  :", ly.entries, " log k =", ly.log_k)

# Inverses reconstruct the composition exactly (to float precision).
print("ratio round trip       :", ratio_inverse(y).entries)
print("alr round trip         :", log_ratio_inverse(ly).entries)

# The log-ratio inverse is shift-stable: coordinates of 700 would
# overflow exp() naively, but the softmax normalization is done after
# subtracting the maximum.
stress = log_ratio_inverse(LogRatioVector([700.0, 700.0]))
print("alr inverse at (700, 700):", stress.entries)

# Closed-form log |det J| of each inverse map, in the chart that keeps
# the first n-1 coordinates.  The log-ratio Jacobian is the ratio one
# times prod(e^{y_i}) = prod(y_ratio_i), so the two columns differ by
# sum(y).  (``countcomp verify`` checks both closed forms against
# central differences of the implemented maps: the
# jacobian-finite-difference-ratio and -alr checks.)
print("\nclosed-form log |det J| of the inverse maps")
rng = np.random.default_rng(0)
for n in (2, 3, 5):
    ay = LogRatioVector(rng.normal(size=n - 1))
    ry = RatioVector(np.exp(ay.entries))
    ratio = log_det_jacobian_ratio_inverse(ry, n)
    alr = log_det_jacobian_log_ratio_inverse(ay, n)
    print(f"  n={n}: ratio {ratio:+.10f}  alr {alr:+.10f}  "
          f"alr - ratio {alr - ratio:+.10f}  sum(y) {ay.entries.sum():+.10f}")
