"""Generalization bounds for stationary mixing processes, validated exactly.

The package runs a delayed online-learning game against finite-state
Markov data, verifies the exact decomposition of the generalization gap
into regret plus a martingale term, evaluates the closed-form bounds with
tuned delays, and Monte-Carlo-checks their coverage.
"""

from .errors import (ConsistencyError, MixgameError, ModelError, ProtocolError,
                     SizeError, ValidationError)
from .process import (DECAY_LAWS, MixingProfile, ProcessModel, SamplePath,
                      build_markov, exact_phi, fit_mixing_profile,
                      model_from_json, phi_table, replicate_seed, sample_path,
                      two_state_chain, window_expectations)
from .learner import (HypothesisSpace, erm, gibbs_posterior, kl_divergence,
                      uniform_prior)
from .game import GameTrace, decompose, play_costs
from .online import (EWA, FTRL, delayed_regret_bound, ewa_step, ftrl_step,
                     project_simplex)
from .bounds import delay_bound, deviation_term, sweep_delay
from .dynamic import (DiscountedLoss, composite_phi_check, dynamic_phi_mc,
                      exact_block_beta, limit_test_losses, loss_from_json,
                      run_dynamic_game)
from .experiments import (ExperimentConfig, config_from_dict, coverage_experiment,
                          delay_sweep, delayed_ewa_posteriors, mixing_table,
                          run_experiment)

__version__ = "0.1.0"
