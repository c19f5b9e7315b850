"""Why wait before updating? The delay trade-off made visible.

On dependent data an online learner that reacts instantly overfits the
local correlation structure; one that waits d rounds sees nearly fresh
samples but pays d times the regret.  The generalization bound

    Gen <= Regret_d / n + phi_d + sqrt(2 d ln(1/delta) / n)

makes the trade-off explicit: phi_d falls with d while the regret and
deviation terms grow.  This script sweeps d and compares the minimizer
with the bound at the closed-form tuned delay.
"""

import numpy as np

from mixgame import (MixingProfile, delayed_regret_bound, kl_divergence,
                     sample_path, tuned_bound, uniform_prior)
from mixgame.experiments import (config_from_dict, delay_sweep,
                                 statistical_posterior)

cfg = config_from_dict({
    "process": {"transition": [[0.95, 0.05], [0.05, 0.95]]},  # slow mixing
    "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
    "learner": {"kind": "gibbs", "beta": 1.0},
    "online": {"algorithm": "ewa", "eta": 0.3, "delay": 1},
    "experiment": {"n": 2000, "replicates": 1, "delta": 0.1, "seed": 9,
                   "d_grid": [1, 2, 4, 8, 16, 24, 32, 48, 64, 96]},
})

rows = delay_sweep(cfg)
print("  d    phi_d      deviation  regret/n   total      empirical gen")
for r in rows:
    print(f"{r['d']:4d}   {r['phi_term']:.6f}   {r['deviation_term']:.4f}     "
          f"{r['regret_term']:.4f}     {r['total_bound']:.4f}     "
          f"{r['empirical_gen']:+.4f}")

best = min(rows, key=lambda r: r["total_bound"])
# phi_d = 0.5 * 0.9^d exactly: 0.9 is the chain's second eigenvalue
profile = MixingProfile("geometric", C=0.5, tau=-1 / np.log(0.9))
# the sweep's comparator: the learner's posterior on the master seed's mean loss row
loss_rows = cfg.loss.loss_rows(sample_path(cfg.model, cfg.n, cfg.seed).symbols)
kl = kl_divergence(statistical_posterior(cfg, loss_rows.mean(axis=0)), uniform_prior(2))
tuned = tuned_bound(profile, cfg.n, cfg.delta,
                    lambda d: delayed_regret_bound(kl, cfg.eta, d, cfg.n))
print(f"\nsweep minimum at d={best['d']} (total {best['total_bound']:.4f})")
print(f"closed-form tuned delay d={tuned.d} (total {tuned.total:.4f}) — no "
      "sweep required, and its total is within a constant factor of the minimum")
