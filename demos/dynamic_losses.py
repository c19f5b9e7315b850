"""Losses that depend on the whole history, not just today's symbol.

A memory-2 parity loss pays 1 when the last two symbols differ.  This
script computes its limiting test loss, forgetting and block-mixing
coefficients, verifies the composite mixing inequality

    phi_d <= 2 * B_{floor(d/2)} + beta_{floor(d/2)},

where phi_d is the table's ``exact_phi`` at d >= m (the limiting loss minus
the conditional one, the side the generalization bound takes), and runs a
delayed game whose exact decomposition identity holds unchanged for
history-dependent costs.
"""

import numpy as np

from mixgame import (HypothesisSpace, composite_phi_check, decompose,
                     limit_test_losses, make_learner, run_dynamic_game,
                     sample_path, two_state_chain, uniform_prior)

x = np.array([[0.0, 1.0], [1.0, 0.0]])       # parity of the last two symbols
loss = HypothesisSpace(np.stack([x, 1.0 - x]))  # memory 2: two symbol axes
model = two_state_chain(0.25, 0.25)

limits, err = limit_test_losses(loss, model)
print(f"limiting test losses: {limits} (truncation error {err})")
print("  -> P(Z_t != Z_(t-1)) = 0.25 on this chain, as expected\n")

print("forgetting profile B_d:",
      np.array([loss.forgetting(d) for d in range(1, 6)]))
print("  -> changing the symbol one step back can flip the parity (B_1 = 1);")
print("     anything older than the 2-symbol memory is irrelevant\n")

print("composite mixing check:")
print("  d   phi_d      2B + beta")
for r in composite_phi_check(model, loss, [2, 4, 6, 8, 10]):
    print(f" {r['d']:2d}   {r['phi_dynamic']:.6f}   {r['rhs']:.6f}   "
          f"{'ok' if r['ok'] else 'VIOLATED'}")

path = sample_path(model, 500, seed=3)
learner = make_learner("ewa", uniform_prior(2), 0.4, d=4)
trace = run_dynamic_game(loss, path, learner, 4, limits)
parts = decompose(trace, uniform_prior(2))
print(f"\ndelayed game on history-dependent costs (n=500, d=4):")
print(f"  gen = {parts['gen']:+.6f}")
print(f"  regret/n + M_n = {parts['regret_over_n'] + parts['martingale']:+.6f}")
print(f"  identity residual: "
      f"{abs(parts['gen'] - parts['regret_over_n'] - parts['martingale']):.2e}")
