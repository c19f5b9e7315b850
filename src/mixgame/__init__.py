"""Generalization bounds for stationary mixing processes, validated exactly.

The package runs a delayed online-learning game against finite-state
Markov data, verifies the exact decomposition of the generalization gap
into regret plus a martingale term, evaluates the closed-form bounds with
tuned delays, and Monte-Carlo-checks their coverage.
"""

from .errors import (ConsistencyError, MixgameError, ModelError, ProtocolError,
                     SizeError, ValidationError)
from .process import (DECAY_LAWS, MixingProfile, ProcessModel, SamplePath,
                      build_iid, build_markov, conditional_loss_expectations,
                      exact_phi, fit_mixing_profile, model_from_json,
                      phi_table, product_chain, replicate_seed, sample_path,
                      two_state_chain, window_expectations)
from .learner import (HypothesisSpace, PosteriorDist, empirical_losses, erm,
                      exact_generalization_error, gibbs_posterior,
                      kl_divergence, test_losses)
from .game import (GameTrace, decompose, export_trace_csv, generalization_gap,
                   instance_regrets, martingale_term, play_costs,
                   realized_regret, run_game)
from .online import (EWA, FTRL, DelayedLearner, delayed_regret_bound, ewa_step,
                     ftrl_step, make_learner, project_simplex, regret_bound)
from .bounds import (BoundReport, delay_bound, deviation_term, sweep_delay,
                     tuned_bound)
from .dynamic import (DiscountedLoss, block_mixing_profile,
                      composite_phi_check, dynamic_conditional_expectations,
                      dynamic_phi, dynamic_phi_gaps, dynamic_phi_mc,
                      exact_block_beta, forgetting_profile, limit_test_losses,
                      loss_from_json, run_dynamic_game)
from .experiments import (CoverageResult, ExperimentConfig, config_from_dict,
                          coverage_experiment, delay_sweep,
                          delayed_ewa_posteriors, mixing_table, run_experiment)

__version__ = "0.1.0"
