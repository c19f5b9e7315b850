"""Do the high-probability bounds actually hold at their stated confidence?

Runs 500 independent replicates of the delayed generalization game on a
slowly mixing chain and counts how often the martingale term M_n and the
full generalization gap exceed their delta = 0.1 bounds.  Both empirical
violation rates should be far below 10%: the bounds are valid but not
tight at this scale.
"""

import numpy as np

from mixgame.experiments import config_from_dict, coverage_experiment

cfg = config_from_dict({
    "process": {"transition": [[0.95, 0.05], [0.05, 0.95]]},
    "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
    "learner": {"kind": "gibbs", "beta": 1.0},
    "online": {"algorithm": "ewa", "eta": 0.3, "delay": "auto-geometric"},
    "experiment": {"n": 2000, "replicates": 500, "delta": 0.1, "seed": 42},
})
print(f"auto-tuned delay for n={cfg.n}: d={cfg.delay}\n")

for mode, label in (("mn", "martingale term M_n"),
                    ("gen", "generalization gap")):
    # rows [replicate, value, bound, violated]: columns of run_experiment's rows
    rows, summary = coverage_experiment(cfg, mode=mode)
    _, values, bounds, violated = map(np.array, zip(*rows))
    print(f"{label}:")
    print(f"  bound violated in {violated.sum()} of {summary['replicates']} "
          f"replicates (rate {summary['violation_rate']:.3f}, "
          f"stderr {summary['stderr']:.3f})")
    print(f"  typical value {values.mean():+.4f}, "
          f"typical bound {bounds.mean():.4f}\n")

print("target confidence was delta = 0.1; anything at or below that "
      "(with Monte Carlo slack) confirms the bound")
