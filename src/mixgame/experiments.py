"""Replicated experiment driver: config parsing, replicates, coverage, delay sweeps.

Every replicate is one ``replicate`` call: path, delayed game, the comparator
read from the game's loss rows, and the checked decomposition
Gen = Regret/n + M_n.  The config carries one loss, a table of memory m
(static: m = 1) or a discounted loss, and every step reads it the same way.
Wrapped exponential weights plays the closed form of
``delayed_ewa_posteriors``; every other algorithm plays the game loop.
Coverage is a column view of ``run_experiment``'s rows.
Replicate k draws its RNG stream from the master seed via a splitmix64
derivation, so runs are reproducible end to end and replicates independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bd
from . import dynamic as dyn
from .errors import ValidationError, _require, build_field, config_value
from .game import GameTrace, decompose, realized_regret
from .learner import PosteriorDist, erm, gibbs_posterior, kl_divergence
from .online import delayed_regret_bound, make_learner
from .process import (DECAY_LAWS, ProcessModel, fit_mixing_profile,
                      model_from_json, phi_table, replicate_seed, sample_path)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    model: ProcessModel
    loss: object                         # dyn.LOSS_SCHEMAS: a table or discounted loss
    learner_kind: str                    # "gibbs" | "erm"
    beta: float
    algorithm: str                       # "ewa" | "ftrl-entropy" | "ftrl-sqnorm"
    eta: float
    delay: int                           # resolved from online.delay, in [1, n]
    n: int
    replicates: int
    delta: float
    seed: int
    d_grid: list = field(default_factory=list)
    d_max: int = 30


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse and validate the experiment JSON document."""
    _require(isinstance(doc, dict), "<root>", "must be a JSON object")
    for section in ("process", "loss", "experiment"):
        _require(isinstance(doc.get(section), dict), section,
                 "missing, or not a JSON object")
    model = model_from_json(doc["process"])
    loss = dyn.loss_from_json(doc["loss"])
    _require(loss.alphabet == model.n_states, "loss",
             "loss alphabet must match the number of states")

    learner_doc = doc.get("learner", {"kind": "gibbs", "beta": 1.0})
    _require(isinstance(learner_doc, dict), "learner", "must be a JSON object")
    kind = learner_doc.get("kind", "gibbs")
    _require(kind in ("gibbs", "erm"), "learner.kind", "must be 'gibbs' or 'erm'")
    beta = config_value(learner_doc.get("beta", 1.0), "learner.beta", float, low=0)

    online_doc = doc.get("online", {})
    _require(isinstance(online_doc, dict), "online", "must be a JSON object")
    algorithm = online_doc.get("algorithm", "ewa")
    _require(algorithm in ("ewa", "ftrl-entropy", "ftrl-sqnorm"),
             "online.algorithm", "unknown algorithm")
    eta = config_value(online_doc.get("eta", 0.1), "online.eta", float, low=0,
                       strict=True)
    delay_spec = online_doc.get("delay", 1)
    auto_delays = [f"auto-{kind}" for kind in DECAY_LAWS]  # fit a law, tune to it
    _require((isinstance(delay_spec, int) and not isinstance(delay_spec, bool))
             or delay_spec in auto_delays,
             "online.delay", "must be an integer or " + "/".join(auto_delays))

    exp = doc["experiment"]
    n = config_value(exp.get("n"), "experiment.n", int, low=1)
    replicates = config_value(exp.get("replicates", 1), "experiment.replicates",
                              int, low=1)
    delta = config_value(exp.get("delta", 0.05), "experiment.delta", float,
                         low=0, high=1, strict=True)
    # read modulo 2**64, as replicate seeds are, so a negative seed is valid
    # wherever the master seed reaches a generator
    seed = config_value(exp.get("seed", 0), "experiment.seed", int,
                        high=math.inf) % 2**64
    grid = exp.get("d_grid", [])
    _require(isinstance(grid, list), "experiment.d_grid", "must be a list of delays")
    d_grid = [config_value(v, f"experiment.d_grid[{i}]", int, low=1)
              for i, v in enumerate(grid)]
    d_max = config_value(exp.get("d_max", 30), "experiment.d_max", int, low=1)

    delay = resolve_delay(delay_spec, model, loss, n, d_max)
    return ExperimentConfig(model=model, loss=loss, learner_kind=kind, beta=beta,
                            algorithm=algorithm, eta=eta, delay=delay, n=n,
                            replicates=replicates, delta=delta, seed=seed,
                            d_grid=d_grid, d_max=d_max)


def static_table(loss, name: str, message: str) -> np.ndarray:
    """The W x S table of a memory-1 loss, which phi_d at every lag needs.

    A memory m > 1 or a discounted loss is a ValidationError of config
    field ``name``.
    """
    _require(getattr(loss, "m", None) == 1, name, message)
    return loss.loss_table


def resolve_delay(delay_spec, model: ProcessModel, loss, n: int, d_max: int) -> int:
    """Turn the online.delay spec into a concrete integer in [1, n]."""
    if isinstance(delay_spec, int):
        _require(1 <= delay_spec <= n, "online.delay", "must lie in [1, n]")
        return delay_spec
    table = phi_table(model, static_table(loss, "online.delay", "auto delay "
                                          "tuning needs a static loss table"),
                      min(d_max, n))
    if np.all(table <= 0):
        return 1  # i.i.d. losses: no reason to delay
    positive = table[table > 1e-15]
    _require(len(positive) >= 3, "experiment.d_max", "auto delay tuning needs "
             "at least 3 positive phi_d values for d <= min(d_max, n)")
    kind = delay_spec.removeprefix("auto-")
    return build_field("online.delay", fit_mixing_profile, positive,
                       kind).tuned_delay(n)


def statistical_posterior(cfg: ExperimentConfig,
                          loss_rows: np.ndarray) -> PosteriorDist:
    """The configured learner's posterior, from the mean of the (n, W) loss rows."""
    if cfg.learner_kind == "erm":
        return erm(loss_rows)
    return build_field("learner.beta", gibbs_posterior, loss_rows, cfg.beta)


def delayed_ewa_posteriors(costs: np.ndarray, prior_log: np.ndarray, eta: float,
                           d: int) -> np.ndarray:
    """Closed-form plays of the round-robin exponential-weights wrapper.

    The play at round t is softmax(prior_log - eta * sum of costs at rounds
    t-d, t-2d, ...), which is exactly what the wrapped learner produces
    when fed costs with delay d.
    """
    n, W = costs.shape
    S = np.zeros_like(costs)
    for i in range(min(d, n)):
        cls = costs[i::d]
        if len(cls) > 1:
            S[i + d::d] = np.cumsum(cls[:-1], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # GameTrace names a spoiled play
        lw = prior_log[None, :] - eta * S
        lw -= lw.max(axis=1, keepdims=True)
        p = np.exp(lw)
        return p / p.sum(axis=1, keepdims=True)


def replicate(cfg: ExperimentConfig, seed: int, limit: np.ndarray):
    """Play one delayed game on the path drawn from ``seed``, with ``limit`` the
    loss's ``dyn.limit_test_losses``, then fit the comparator to the game's
    loss rows; return the comparator, trace and parts."""
    path = sample_path(cfg.model, cfg.n, seed)
    prior = PosteriorDist.uniform(cfg.loss.n_hypotheses)
    if cfg.algorithm == "ewa":
        rows = cfg.loss.loss_rows(path.symbols)
        plays = delayed_ewa_posteriors(rows - limit, prior.log_weights, cfg.eta,
                                       cfg.delay)
        trace = GameTrace(cfg.delay, plays, rows, limit)
    else:
        learner = make_learner(cfg.algorithm, prior, cfg.eta, d=cfg.delay)
        trace = dyn.run_dynamic_game(cfg.loss, path, learner, cfg.delay, limit)
    comparator = statistical_posterior(cfg, trace.loss_rows)
    return comparator, trace, decompose(trace, comparator)


def experiment_phi(cfg: ExperimentConfig) -> float:
    """phi_d at the delay: exact when d >= m, else the Monte-Carlo estimate."""
    if cfg.delay >= getattr(cfg.loss, "m", math.inf):
        return dyn.dynamic_phi(cfg.model, cfg.loss, cfg.delay)
    phi, _ = dyn.dynamic_phi_mc(cfg.model, cfg.loss, cfg.delay,
                                n_samples=200, seed=cfg.seed)
    return phi


def run_experiment(cfg: ExperimentConfig) -> tuple[list[dict], list]:
    """Run all replicates; return one summary row dict per replicate and the
    bound reports of replicate 0."""
    phi = experiment_phi(cfg)
    mn_bound = phi + bd.deviation_term(cfg.delay, cfg.n, cfg.delta)
    limit = dyn.limit_test_losses(cfg.loss, cfg.model)[0]
    rows, reports = [], []
    for k in range(cfg.replicates):
        seed = replicate_seed(cfg.seed, k)
        comparator, trace, parts = replicate(cfg, seed, limit)
        gen_bound = parts["regret_over_n"] + mn_bound
        rows.append({"replicate": k, "seed": seed, "gen": parts["gen"],
                     "regret_over_n": parts["regret_over_n"],
                     "martingale": parts["martingale"], "phi_d": phi,
                     "mn_bound": mn_bound, "gen_bound": gen_bound,
                     "violated_mn": parts["martingale"] > mn_bound,
                     "violated_gen": parts["gen"] > gen_bound})
        if k == 0:
            reports.append(bd.delay_bound(realized_regret(trace, comparator), phi,
                                          cfg.delay, cfg.n, cfg.delta,
                                          tag="delay-realized"))
            kl = kl_divergence(comparator, PosteriorDist.uniform(cfg.loss.n_hypotheses))
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
    """phi_d table for d = 1..d_max plus decay-law fits where possible."""
    table = phi_table(cfg.model, static_table(
        cfg.loss, "loss", "mixing tables need a static loss table"), cfg.d_max)
    if np.any(np.diff(table) > 1e-12):
        raise ValidationError("phi table is not non-increasing")  # invariant gate
    fits = {}
    if np.all(table > 0):
        _require(len(table) >= 3, "experiment.d_max",
                 "decay-law fits need at least 3 phi_d values")
        for kind in DECAY_LAWS:
            prof = fit_mixing_profile(table, kind)
            fits[kind] = {"C": prof.C, "tau": prof.tau, "r": prof.r,
                          "residual": prof.fit_residual}
    return {"table": table, "fits": fits, "fit_skipped": not fits}


def delay_sweep(cfg: ExperimentConfig) -> list[dict]:
    """``bounds.sweep_delay`` on the master seed's loss rows and their posterior."""
    static_table(cfg.loss, "loss", "the delay sweep needs a static loss table")
    for i, d in enumerate(cfg.d_grid):
        _require(d <= cfg.n, f"experiment.d_grid[{i}]", "must lie in [1, n]")
    d_grid = cfg.d_grid or sorted({min(2**i, cfg.n) for i in range(7)})
    loss_rows = cfg.loss.loss_rows(sample_path(cfg.model, cfg.n, cfg.seed).symbols)
    return bd.sweep_delay(cfg.model, cfg.loss, loss_rows,
                          statistical_posterior(cfg, loss_rows), cfg.delta, d_grid,
                          eta=cfg.eta, algorithm=cfg.algorithm)
