"""Trading robustness against gain over the parameter family.

Method 1 blends the condition-number surrogate of the eigenvector matrix
with the squared gain; method 2 blends the squared departure from normality
of the closed loop with the squared gain.  alpha = 1 is pure robustness,
alpha = 0 pure minimum gain.
"""

from pathlib import Path

import numpy as np

import poleplace as pp

# the shipped corpus beside demos/, so the demo runs from any directory
CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# the classic 4-state chemical reactor with the hardest admissible request:
# all poles at zero, Jordan blocks sized by the controllability indices
entry = pp.load_system(CORPUS / "bn01_reactor.json")
sys = entry.system
spec = pp.defective_zero_structure(sys)
print("system:", entry.name, f"(n={sys.n}, m={sys.m})")
print("controllability indices:", pp.controllability_indices(sys))
print("defective request: all poles 0, blocks", spec.block_orders[0])
print()

opts = pp.OptOptions(restarts=6, max_iters=300, seed=0)

print("Method 1 (condition number), alpha sweep:")
print(f"{'alpha':>8} {'kappa_fro(X)':>14} {'|F|_fro':>10} {'residual':>10}")
for alpha in (1.0, 0.5, 0.0):
    r = pp.minimize(pp.ObjectiveSpec("condition", alpha), sys, spec, opts)
    print(
        f"{alpha:8.2f} {r.metrics['kappa_fro_X']:14.4f} "
        f"{r.metrics['gain_fro']:10.4f} {r.placement.residual:10.2e}"
    )
print("(published comparison values for this system: kappa 16.73, gain 3.102)")

print()
print("Method 2 (departure from normality), alpha sweep:")
print(f"{'alpha':>8} {'delta_fro':>12} {'|F|_fro':>10} {'residual':>10}")
for alpha in (1.0, 0.5, 0.0):
    r = pp.minimize(pp.ObjectiveSpec("normality", alpha), sys, spec, opts)
    print(
        f"{alpha:8.2f} {r.metrics['delta_fro']:12.4f} "
        f"{r.metrics['gain_fro']:10.4f} {r.placement.residual:10.2e}"
    )

print()
print("Every accepted optimizer step is a descent step; first non-empty restart trace:")
r = pp.minimize(pp.ObjectiveSpec("condition", 1.0), sys, spec,
                pp.OptOptions(restarts=1, max_iters=40, seed=3))
# a restart whose start draws were all singular has an empty trace
trace = next(t for t in r.traces if t)
print("  " + " -> ".join(f"{v:.2f}" for v in trace[:8]) + " -> ...")

print()
print("The perturbation bound the condition number controls:")
res = r.placement
for scale in (1e-6, 1e-4):
    rng = np.random.default_rng(5)
    H = rng.standard_normal((sys.n, sys.n))
    H *= scale / np.linalg.norm(H, 2)
    holds = pp.sensitivity_bound_check(res.X, H, spec)
    print(f"  |H|_2 = {scale:.0e}: bound holds = {holds}")
