"""Replicated experiment driver: config parsing, replicates, coverage, delay sweeps.

Every replicate is one ``replicate`` call: path, delayed game, the comparator
read from the game's mean loss row, and the checked decomposition
Gen = Regret/n + M_n.  The config carries one loss, a table of memory m
(static: m = 1) or a discounted loss, and every step reads it the same way.
Exponential weights (FTRL with negative entropy) plays the closed form
``delayed_ewa_posteriors``, the game loop's ``ewa_step`` at every round at once;
squared-norm FTRL plays the game loop.  A game's (n, W) arrays are (W, n) buffers,
so each reduction runs over rounds, in the orders ``game`` states.
Coverage is a column view of ``run_experiment``'s rows.  The delay sweep plays
the configured learner at each grid delay, and ``bounds`` assembles its rows.
Replicate k draws its RNG stream from the master seed via a splitmix64
derivation, so runs are reproducible end to end and replicates independent.
"""

from __future__ import annotations

import math
from dataclasses import make_dataclass

import numpy as np

from . import bounds as bd
from . import dynamic as dyn
from .errors import CONFIG_FIELDS, ConfigSection, ValidationError, _require, build_field
from .game import GameTrace, decompose, play_costs
from .learner import _round_mean, erm, gibbs_posterior, kl_divergence, uniform_prior
from .online import delayed_regret_bound, ewa_step, make_learner
from .process import (DECAY_LAWS, PHI_FLOOR, ProcessModel, exact_phi,
                      fit_mixing_profile, model_from_json, phi_table,
                      replicate_seed, sample_path)


# the model, the loss, then the learner, online and experiment keys in table order
ExperimentConfig = make_dataclass("ExperimentConfig", ["model", "loss"] + [
    path.partition(".")[2] for path in CONFIG_FIELDS
    if path.startswith(("learner.", "online.", "experiment."))],
    frozen=True, eq=False, namespace={"__module__": __name__, "__doc__":
        "A validated experiment config; online.delay resolved to an int in [1, n]."})


def config_from_dict(doc: dict, seed: int | None = None) -> ExperimentConfig:
    """Parse and validate the experiment JSON document; a ``seed`` replaces its own."""
    _require(isinstance(doc, dict), "<root>", "must be a JSON object")
    model = model_from_json(doc.get("process", {}))
    loss = dyn.loss_from_json(doc.get("loss", {}))
    _require(loss.alphabet == model.n_states, "loss",
             "loss alphabet must match the number of states")
    learner = ConfigSection(doc.get("learner", {}), "learner")
    online = ConfigSection(doc.get("online", {}), "online")
    exp = ConfigSection(doc.get("experiment", {}), "experiment", seed=seed)
    online["delay"] = resolve_delay(online["delay"], model, loss, exp["n"],
                                    exp["d_max"])
    exp["seed"] %= 2**64  # as replicate seeds are, so a negative seed is valid
    return ExperimentConfig(model, loss, **learner, **online, **exp)


def decay_fits(model: ProcessModel, loss, field: str, d_max: int, kinds,
               cut: str = "experiment.d_max") -> tuple:
    """A static loss's phi_d table for d = 1..d_max, each law of ``kinds`` fit to
    the entries before the first phi_d at or below ``PHI_FLOOR``, and that lag.

    A table that ends after at most 2 entries gets no fit; one that never ends
    needs 3, or names ``cut``, the field that set d_max.  Other errors name
    ``field``.
    """
    _require(getattr(loss, "m", None) == 1, field, "needs a static loss table")
    table = phi_table(model, loss.loss_table, d_max)
    end = int(np.argmax(np.append(table, 0.0) <= PHI_FLOOR))  # leading entries above
    _require(end >= 3 or end < len(table), cut,
             f"a decay-law fit needs at least 3 phi_d values, not {len(table)}")
    fits = {} if end < 3 else {
        k: build_field(field, fit_mixing_profile, table[:end], k) for k in kinds}
    return table, fits, end + 1


def resolve_delay(delay_spec, model: ProcessModel, loss, n: int, d_max: int) -> int:
    """Turn the online.delay spec into a concrete integer in [1, n]."""
    if isinstance(delay_spec, int):
        _require(1 <= delay_spec <= n, "online.delay", "must lie in [1, n]")
        return delay_spec
    kind = delay_spec.removeprefix("auto-")
    cut = "experiment.n" if n < d_max else "experiment.d_max"
    _, fits, end = decay_fits(model, loss, "online.delay", min(d_max, n), [kind], cut)
    return fits[kind].tuned_delay(n) if fits else end  # no fit: first lag at the floor


def statistical_posterior(cfg: ExperimentConfig, mean_row: np.ndarray) -> np.ndarray:
    """The configured learner's posterior, from the (W,) mean of n = cfg.n loss rows."""
    if cfg.kind == "erm":
        return erm(mean_row)
    return build_field("learner.beta", gibbs_posterior, mean_row, cfg.n, cfg.beta)


def delayed_ewa_posteriors(costs: np.ndarray, prior_log: np.ndarray, eta: float,
                           d: int) -> np.ndarray:
    """Closed-form plays of the delay-d exponential-weights learner, bit for bit.

    The play at round t is ``ewa_step`` of S_t, the sum of costs at rounds t-d,
    t-2d, ...  One cumsum down (n-1)//d blocks of d cost rows gives S_d, S_{d+1},
    ... with the additions, in order, that ``EWA`` makes to its class's row.
    """
    if d < 1:
        raise ValidationError("delay must be at least 1")
    n, W = costs.shape
    S = np.zeros((W, n))  # hypothesis-major, as are the plays
    q = (n - 1) // d  # blocks of d rounds whose costs reach a later round
    blocks = costs.T[:, :q * d].reshape(W, q, d)  # hypothesis, block, residue class
    S[:, d:] = np.cumsum(blocks, axis=1).reshape(W, -1)[:, :n - d]
    with np.errstate(over="ignore", invalid="ignore"):  # GameTrace names a spoiled play
        return ewa_step(prior_log, eta, S.T)


def replicate(cfg: ExperimentConfig, seed: int, limit: np.ndarray, prior: np.ndarray):
    """Play one delayed game from ``prior`` on the path drawn from ``seed``, with
    ``limit`` the loss's ``dyn.limit_test_losses``, then fit the comparator to
    the game's mean loss row; return it and the parts of ``decompose``."""
    path = sample_path(cfg.model, cfg.n, seed)
    if cfg.algorithm == "ewa":
        rows = np.asfortranarray(cfg.loss.loss_rows(path.symbols))
        costs = rows - limit
        plays = delayed_ewa_posteriors(costs, np.log(prior), cfg.eta, cfg.delay)
        trace = GameTrace(plays, rows, limit, costs)
    else:
        learner = make_learner(cfg.algorithm, prior, cfg.eta, d=cfg.delay)
        trace = dyn.run_dynamic_game(cfg.loss, path, learner, cfg.delay, limit)
    comparator = statistical_posterior(cfg, trace.mean_row)
    return comparator, decompose(trace, comparator)


def experiment_phi(cfg: ExperimentConfig, limit: np.ndarray) -> float:
    """phi_d at the delay: exact when d >= m, else the Monte-Carlo estimate
    against ``limit``, the loss's ``dyn.limit_test_losses``."""
    if cfg.delay >= getattr(cfg.loss, "m", math.inf):
        return exact_phi(cfg.model, cfg.loss.loss_table, cfg.delay)
    phi, _ = dyn.dynamic_phi_mc(cfg.model, cfg.loss, cfg.delay, limit,
                                n_samples=200, seed=cfg.seed)
    return phi


def run_experiment(cfg: ExperimentConfig) -> tuple[list[dict], list]:
    """Run all replicates; return one summary row dict per replicate and the
    bound reports of replicate 0."""
    limit = dyn.limit_test_losses(cfg.loss, cfg.model)[0]
    phi = experiment_phi(cfg, limit)
    mn_bound = phi + bd.deviation_term(cfg.delay, cfg.n, cfg.delta)
    prior = uniform_prior(cfg.loss.n_hypotheses)
    rows, reports = [], []
    for k in range(cfg.replicates):
        seed = replicate_seed(cfg.seed, k)
        comparator, parts = replicate(cfg, seed, limit, prior)
        gen_bound = parts["regret_over_n"] + mn_bound
        rows.append({"replicate": k, "seed": seed, "gen": parts["gen"],
                     "regret_over_n": parts["regret_over_n"],
                     "martingale": parts["martingale"], "phi_d": phi,
                     "mn_bound": mn_bound, "gen_bound": gen_bound,
                     "violated_mn": parts["martingale"] > mn_bound,
                     "violated_gen": parts["gen"] > gen_bound})
        if k == 0:
            reports.append(bd.delay_bound(parts["regret"], phi, cfg.delay, cfg.n,
                                          cfg.delta, tag="delay-realized"))
            kl = kl_divergence(comparator, prior)
            apriori = delayed_regret_bound(kl, cfg.eta, cfg.delay, cfg.n)
            reports.append(bd.delay_bound(apriori, phi, cfg.delay, cfg.n,
                                          cfg.delta, tag="delay-apriori"))
    return rows, reports


# coverage mode -> run_experiment columns: the bounded value, its bound, the flag
COVERAGE_COLUMNS = {"mn": ("martingale", "mn_bound", "violated_mn"),
                    "gen": ("gen", "gen_bound", "violated_gen")}


def coverage_experiment(cfg: ExperimentConfig, mode: str = "mn") -> tuple[list, dict]:
    """Empirical violation rate of the martingale or generalization bound.

    A column view of ``run_experiment``'s replicate rows: M_n against
    mn_bound = phi_d + deviation, or Gen against gen_bound = regret/n + mn_bound.
    Returns row dicts {replicate, value, bound, violated} and a summary whose
    stderr is "undefined" for a single replicate.
    """
    if mode not in COVERAGE_COLUMNS:
        raise ValidationError("coverage mode must be 'mn' or 'gen'")
    value, bound, violated = COVERAGE_COLUMNS[mode]
    rows = [{"replicate": r["replicate"], "value": r[value], "bound": r[bound],
             "violated": r[violated]} for r in run_experiment(cfg)[0]]
    rate = sum(bool(row["violated"]) for row in rows) / cfg.replicates
    stderr = "undefined"
    if cfg.replicates > 1:
        stderr = math.sqrt(rate * (1.0 - rate) / cfg.replicates)
    return rows, {"mode": mode, "replicates": cfg.replicates,
                  "violation_rate": rate, "stderr": stderr}


def mixing_table(cfg: ExperimentConfig) -> dict:
    """phi_d table for d = 1..d_max plus the decay-law fits of ``decay_fits``."""
    table, fits, _ = decay_fits(cfg.model, cfg.loss, "loss", cfg.d_max, DECAY_LAWS)
    fits = {kind: {"C": p.C, "tau": p.tau, "r": p.r, "residual": p.fit_residual}
            for kind, p in fits.items()}
    return {"table": table, "fits": fits, "fit_skipped": not fits}


def delay_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Play ``cfg.algorithm`` at each grid delay on the master seed's loss rows,
    against their posterior and the limit built once, and check each game's
    decomposition; ``bounds.sweep_delay`` assembles the rows around the gaps."""
    _require(getattr(cfg.loss, "m", None) == 1, "loss", "needs a static loss table")
    for i, d in enumerate(cfg.d_grid):
        _require(d <= cfg.n, f"experiment.d_grid[{i}]", "must lie in [1, n]")
    d_grid = cfg.d_grid or sorted({min(2**i, cfg.n) for i in range(7)})
    loss_rows = cfg.loss.loss_rows(sample_path(cfg.model, cfg.n, cfg.seed).symbols)
    comparator = statistical_posterior(cfg, _round_mean(loss_rows))
    prior = uniform_prior(cfg.loss.n_hypotheses)
    limit = dyn.limit_test_losses(cfg.loss, cfg.model)[0]
    gens = [decompose(play_costs(loss_rows, limit, make_learner(
        cfg.algorithm, prior, cfg.eta, d=d), d), comparator)["gen"] for d in d_grid]
    return bd.sweep_delay(cfg.model, cfg.loss.loss_table, cfg.n, cfg.delta, d_grid,
                          cfg.eta, kl_divergence(comparator, prior), gens)
