import contextlib
import copy
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixgame import (DECAY_LAWS, EWA, HypothesisSpace, ValidationError, decompose,
                     limit_test_losses, play_costs, replicate_seed,
                     run_dynamic_game, sample_path, uniform_prior)
from mixgame.cli import main
from mixgame.errors import CONFIG_FIELDS, config_value
from mixgame.experiments import (config_from_dict, coverage_experiment,
                                 decay_fits, delay_sweep, delayed_ewa_posteriors,
                                 mixing_table, replicate, resolve_delay,
                                 run_experiment, statistical_posterior)
from mixgame.process import PHI_FLOOR


def base_config(**overrides):
    doc = {
        "process": {"transition": [[0.75, 0.25], [0.25, 0.75]],
                    "kind": "plain-markov"},
        "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
        "learner": {"kind": "gibbs", "beta": 1.0},
        "online": {"algorithm": "ewa", "eta": 0.3, "delay": 2},
        "experiment": {"n": 60, "replicates": 4, "delta": 0.1, "seed": 7,
                       "d_max": 10},
    }
    doc.update(overrides)
    return doc


def test_config_parsing_and_validation():
    cfg = config_from_dict(base_config())
    assert cfg.delay == 2 and cfg.n == 60 and cfg.kind == "gibbs"
    # an int field reads a whole float, online.delay as every other
    cfg = config_from_dict(base_config(online={"delay": 2.0}))
    assert cfg.delay == 2 and type(cfg.delay) is int
    with pytest.raises(ValidationError, match="experiment.n"):
        config_from_dict(base_config(experiment={"n": 0}))
    with pytest.raises(ValidationError, match="online.algorithm"):
        config_from_dict(base_config(online={"algorithm": "sgd"}))
    with pytest.raises(ValidationError, match="loss"):
        config_from_dict(base_config(loss={"losses": [[0.0, 1.0, 0.5]]}))


def test_auto_geometric_delay_matches_eigenvalue_tuning():
    doc = base_config(online={"algorithm": "ewa", "eta": 0.3,
                              "delay": "auto-geometric"})
    doc["experiment"]["n"] = 1000
    cfg = config_from_dict(doc)
    # eigenvalue 0.5 gives tau = 1/ln 2; d = ceil(tau * ln 1000)
    assert cfg.delay == int(np.ceil(np.log(1000) / np.log(2)))


def test_closed_form_wrapped_ewa_matches_game_loop():
    # bit for bit: both apply online.ewa_step to sums added in the same order;
    # d = n plays the prior at every round, and n < 2d leaves a partial block.
    # W = 400 plays past any fixed unrolling of the sum over hypotheses.
    rng = np.random.default_rng(27)
    for n in (1, 2, 7, 150, 2000):
        for W in (1, 2, 3, 9, 50) + ((400,) if n <= 150 else ()):
            for d in sorted(d for d in {1, 2, 3, 7, 73, n} if d <= n):
                costs = rng.uniform(-1, 1, size=(n, W))
                prior = rng.dirichlet(np.ones(W))
                eta = float(rng.uniform(0.05, 2.0))
                loop = play_costs(costs, np.zeros(W), EWA(prior, eta, d=d), d)
                closed = delayed_ewa_posteriors(costs, np.log(prior), eta, d)
                assert np.array_equal(loop.posteriors, closed), (n, W, d)


def per_class_ewa_posteriors(costs, prior_log, eta, d):
    """The reference plays: one strided cumsum per residue class of the delay."""
    S = np.zeros_like(costs)
    for i in range(min(d, len(costs))):
        cls = costs[i::d]
        if len(cls) > 1:
            S[i + d::d] = np.cumsum(cls[:-1], axis=0)
    lw = prior_log[None, :] - eta * S
    lw -= functools.reduce(np.maximum, lw.T)[:, None]
    p = np.exp(lw)
    return p / functools.reduce(np.add, p.T)[:, None]


def test_closed_form_wrapped_ewa_is_bit_identical_to_per_class_cumsums():
    rng = np.random.default_rng(25)
    spoiled = 0
    for n in (1, 2, 7, 150, 2000):
        for W in (1, 2, 3, 9):
            prior_log = np.log(uniform_prior(W))
            for d in (1, 2, 3, 7, 73, n, n + 1):
                costs = rng.uniform(-1, 1, size=(n, W))
                with_inf = costs.copy()
                with_inf[rng.integers(n), rng.integers(W)] = np.inf
                # eta * S_t overflows, so the plays hold NaN: [-inf, inf] - inf
                for c, eta in ((with_inf, 0.4), (costs * 1e306, 1e3)):
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = per_class_ewa_posteriors(c, prior_log, eta, d)
                        got = delayed_ewa_posteriors(c, prior_log, eta, d)
                    assert np.array_equal(got, want, equal_nan=True), (n, W, d)
                    spoiled += np.isnan(got).any()
    assert spoiled > 0  # the grid reaches the overflowing plays


def test_closed_form_wrapped_ewa_rejects_a_delay_below_1_and_plays_the_prior_past_n():
    costs = np.random.default_rng(3).uniform(-1, 1, size=(5, 2))
    prior = uniform_prior(2)
    for d in (0, -2):
        with pytest.raises(ValidationError, match="delay must be at least 1"):
            delayed_ewa_posteriors(costs, np.log(prior), 0.4, d)
    for d in (5, 6, 100):  # no cost arrives before the last round
        plays = delayed_ewa_posteriors(costs, np.log(prior), 0.4, d)
        assert np.array_equal(plays, np.full((5, 2), 0.5))


def test_run_experiment_rows_reproduce_decomposition():
    cfg = config_from_dict(base_config())
    rows, bound_rows = run_experiment(cfg)
    assert len(rows) == cfg.replicates
    for row in rows:
        gen, regret_over_n, mn = row["gen"], row["regret_over_n"], row["martingale"]
        assert abs(gen - regret_over_n - mn) < 1e-10
    tags = [r["tag"] for r in bound_rows]
    assert "delay-realized" in tags
    # the realized row reads replicate 0's regret from its decomposition
    realized = bound_rows[tags.index("delay-realized")]
    assert realized["regret_term"] == rows[0]["regret_over_n"]


def test_coverage_modes_agree_between_fast_and_generic_paths():
    doc = base_config()
    doc["experiment"]["replicates"] = 3
    cfg = config_from_dict(doc)
    limit = limit_test_losses(cfg.loss, cfg.model)[0]
    prior = uniform_prior(cfg.loss.n_hypotheses)
    # replicate's closed form of wrapped EWA against its game loop, on each path
    for k in range(cfg.replicates):
        seed = replicate_seed(cfg.seed, k)
        _, fast = replicate(cfg, seed, limit, prior)
        learner = EWA(prior, cfg.eta, d=cfg.delay)
        trace = run_dynamic_game(cfg.loss, sample_path(cfg.model, cfg.n, seed),
                                 learner, cfg.delay, limit)
        slow = decompose(trace, statistical_posterior(cfg, trace.mean_row))
        for key in ("gen", "regret_over_n", "martingale"):
            assert fast[key] == slow[key]


def test_coverage_result_bookkeeping():
    cfg = config_from_dict(base_config())
    rows, summary = coverage_experiment(cfg, mode="mn")
    assert summary["replicates"] == 4
    values, bounds, violated = (np.array([r[key] for r in rows])
                                for key in ("value", "bound", "violated"))
    assert summary["violation_rate"] == pytest.approx(violated.mean())
    np.testing.assert_array_equal(violated, values > bounds)
    with pytest.raises(ValidationError):
        coverage_experiment(cfg, mode="nope")


@pytest.mark.parametrize("algorithm", ["ewa", "ftrl-sqnorm"])
def test_each_path_builds_its_loss_rows_once(monkeypatch, algorithm):
    # the comparator reads the game's rows, and the sweep passes its rows on
    doc = base_config(online={"algorithm": algorithm, "eta": 0.3, "delay": 2})
    doc["experiment"]["d_grid"] = [1, 2, 4]
    cfg = config_from_dict(doc)
    limit = limit_test_losses(cfg.loss, cfg.model)[0]
    calls = []
    loss_rows = HypothesisSpace.loss_rows

    def counted(self, symbols):
        calls.append(len(symbols))
        return loss_rows(self, symbols)
    monkeypatch.setattr(HypothesisSpace, "loss_rows", counted)
    replicate(cfg, 5, limit, uniform_prior(cfg.loss.n_hypotheses))
    assert calls == [cfg.n]
    delay_sweep(cfg)
    assert calls == [cfg.n, cfg.n]


def test_single_replicate_has_no_stderr():
    doc = base_config()
    doc["experiment"]["replicates"] = 1
    _, summary = coverage_experiment(config_from_dict(doc), mode="mn")
    assert summary["stderr"] == "undefined"


def test_mixing_table_contents():
    cfg = config_from_dict(base_config())
    out = mixing_table(cfg)
    np.testing.assert_allclose(out["table"],
                               0.5 * 0.5 ** np.arange(1, 11), atol=1e-12)
    assert out["fits"]["geometric"]["tau"] == pytest.approx(1 / np.log(2),
                                                            abs=1e-9)
    assert not out["fit_skipped"]


def fit_config(transition, losses):
    return {"process": {"transition": transition}, "loss": {"losses": losses},
            "online": {"algorithm": "ewa", "eta": 0.3, "delay": 1},
            "experiment": {"n": 1000}}


def test_mixing_and_auto_delay_fit_the_entries_above_the_floor():
    # phi_d = 0.5 * 0.2**d reaches the rounding noise of 0.5 from d = 22 on
    doc = fit_config([[0.6, 0.4], [0.4, 0.6]], [[0.0, 1.0], [1.0, 0.0]])
    cfg = config_from_dict(doc)
    geometric = mixing_table(cfg)["fits"]["geometric"]
    assert geometric["tau"] == pytest.approx(-1 / np.log(0.2), abs=1e-4)
    assert geometric["residual"] < 0.01
    # the fit auto-geometric tunes its delay from, on the table of min(d_max, n)
    _, fits, _ = decay_fits(cfg.model, cfg.loss, "online.delay",
                            min(cfg.d_max, cfg.n), ["geometric"])
    assert fits["geometric"].tau == geometric["tau"]
    doc["online"]["delay"] = "auto-geometric"
    assert config_from_dict(doc).delay == 5


# P = 1/3 + 0.1 * (1, -1, 0)^T (1, 1, -2) has P^2 = 1 pi^T: phi_d = 0 from d = 2
SQUARE_MIXED = (1 / 3 + 0.1 * np.outer([1, -1, 0], [1, 1, -2])).tolist()


@pytest.mark.parametrize("transition, losses, delay", [
    ([[0.15, 0.25, 0.6]] * 3, np.random.default_rng(0).random((2, 3)).tolist(), 1),
    (SQUARE_MIXED, [[1, 0, 0.5], [0, 1, 0.2]], 2),
])
def test_a_table_that_ends_within_2_lags_is_not_fit(tmp_path, transition, losses,
                                                     delay):
    doc = fit_config(transition, losses)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["mixing", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "mixing_fits.json").read_text()) == {
        "fits": {}, "fit_skipped": True}
    table = mixing_table(config_from_dict(doc))["table"]
    assert np.all(table[delay - 1:] <= PHI_FLOOR) and np.all(table[:delay - 1] > 0.05)
    # an auto delay is the first lag at the floor
    for law in DECAY_LAWS:
        doc["online"]["delay"] = f"auto-{law}"
        assert config_from_dict(doc).delay == delay


def test_delay_sweep_uses_config_grid():
    doc = base_config()
    doc["experiment"]["d_grid"] = [1, 4, 16]
    rows = delay_sweep(config_from_dict(doc))
    assert [r["d"] for r in rows] == [1, 4, 16]


def test_resolve_delay_rejects_out_of_range():
    doc = base_config(online={"algorithm": "ewa", "eta": 0.3, "delay": 61})
    with pytest.raises(ValidationError, match="online.delay"):
        config_from_dict(doc)


# What config_value returned or raised for an int field, a float field and the
# int-or-choice online.delay, recorded while every scalar was read through numpy
# (a string is the message after "config field '<field>': "; numpy scalars read
# by the installed numpy's repr)
NAN, INF = float("nan"), float("inf")
SCALAR_READS = [
    ('experiment.n', True, 'cannot read True as int'),
    ('experiment.n', False, 'cannot read False as int'),
    ('experiment.n', '1', "cannot read '1' as int"),
    ('experiment.n', None, 'missing'),
    ('experiment.n', [1], 'cannot read [1] as int'),
    ('experiment.n', {}, 'cannot read {} as int'),
    ('experiment.n', 2.5, 'cannot read 2.5 as int'),
    ('experiment.n', 2.0, 2),
    ('experiment.n', 10**400, 'must lie in [1, 1000000000]'),
    ('experiment.n', 1e300, 'must lie in [1, 1000000000]'),
    ('experiment.n', NAN, 'cannot read nan as int'),
    ('experiment.n', INF, 'cannot read inf as int'),
    ('experiment.n', -INF, 'cannot read -inf as int'),
    ('experiment.n', np.float64(0.3), f"cannot read {np.float64(0.3)!r} as int"),
    ('experiment.n', np.int64(5), 5),
    ('experiment.n', np.bool_(True), f"cannot read {np.bool_(True)!r} as int"),
    ('online.eta', True, 'cannot read True as float'),
    ('online.eta', False, 'cannot read False as float'),
    ('online.eta', '1', "cannot read '1' as float"),
    ('online.eta', None, 'missing'),
    ('online.eta', [1], 'cannot read [1] as float'),
    ('online.eta', {}, 'cannot read {} as float'),
    ('online.eta', 2.5, 2.5),
    ('online.eta', 2.0, 2.0),
    ('online.eta', 10**400, 'cannot read 100000000000000000...0000000000000000000 as float'),
    ('online.eta', 1e300, 1e300),
    ('online.eta', NAN, 'cannot read nan as float'),
    ('online.eta', INF, 'cannot read inf as float'),
    ('online.eta', -INF, 'cannot read -inf as float'),
    ('online.eta', np.float64(0.3), 0.3),
    ('online.eta', np.int64(5), 5.0),
    ('online.eta', np.bool_(True), f"cannot read {np.bool_(True)!r} as float"),
    ('online.delay', True, 'cannot read True as int'),
    ('online.delay', False, 'cannot read False as int'),
    ('online.delay', '1', "must be one of int, 'auto-geometric', 'auto-algebraic'"),
    ('online.delay', None, 'missing'),
    ('online.delay', [1], 'cannot read [1] as int'),
    ('online.delay', {}, 'cannot read {} as int'),
    ('online.delay', 2.5, 'cannot read 2.5 as int'),
    ('online.delay', 2.0, 2),
    ('online.delay', 10**400, 'must lie in [1, 1000000000]'),
    ('online.delay', 1e300, 'must lie in [1, 1000000000]'),
    ('online.delay', NAN, 'cannot read nan as int'),
    ('online.delay', INF, 'cannot read inf as int'),
    ('online.delay', -INF, 'cannot read -inf as int'),
    ('online.delay', np.float64(0.3), f"cannot read {np.float64(0.3)!r} as int"),
    ('online.delay', np.int64(5), 5),
    ('online.delay', np.bool_(True), f"cannot read {np.bool_(True)!r} as int"),
]


@pytest.mark.parametrize("field, value, want", SCALAR_READS)
def test_config_scalars_read_as_recorded(field, value, want):
    kind, _, limits = CONFIG_FIELDS[field]
    if isinstance(want, str):
        with pytest.raises(ValidationError) as err:
            config_value(value, field, kind, **limits)
        assert str(err.value) == f"config field {field!r}: {want}"
    else:
        got = config_value(value, field, kind, **limits)
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("value", [(1,), np.array(5.0), np.array([5.0])])
def test_a_config_scalar_is_a_real_number_not_a_sequence_or_array(value):
    # read through numpy, a tuple or a 1-element array raised TypeError and a
    # 0-d array was read; no JSON value is any of them
    for field in ("experiment.n", "online.eta"):
        kind, _, limits = CONFIG_FIELDS[field]
        with pytest.raises(ValidationError, match=f"{field}': cannot read"):
            config_value(value, field, kind, **limits)


X = [[0.0, 1.0], [1.0, 0.0]]
MISSING = object()
VALID_CONFIGS = {
    "static": base_config(experiment={"n": 60, "replicates": 2, "delta": 0.1,
                                      "seed": 7, "d_grid": [1, 2], "d_max": 10}),
    "memory": base_config(loss={"kind": "memory-table", "m": 2, "table": [X, X]}),
    "discounted": base_config(loss={"kind": "discounted", "gamma": 0.9,
                                    "scale": 0.1, "g_table": X}),
    "auto": base_config(online={"algorithm": "ewa", "eta": 0.3,
                                "delay": "auto-geometric"}),
    # run through `mixgame bounds`
    "bounds-phi": {"bounds": {"n": 100, "delta": 0.1, "phi_d": 0.05, "d": 4}},
    "bounds-ewa": {"bounds": {"n": 100, "delta": 0.1, "tau": 2.0, "kl": 0.5,
                              "eta": 0.1}},
    "bounds-ftrl": {"bounds": {"n": 100, "delta": 0.1, "r": 1.0, "h_gap": 0.5,
                               "eta": 0.1}},
}
# (config, section, key): key None changes the whole section
FIELD_CASES = [(name, section, key) for name, doc in VALID_CONFIGS.items()
               for section in doc for key in [None, *doc[section]]]
BAD_VALUES = st.one_of(
    st.sampled_from(["x", "2", {"a": 1}, [], [[1.0], [1.0, 2.0]], [[0.5, "x"]],
                     True, False, None, MISSING]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.sampled_from([10**9 + 1, 2**64, 10**400]),
    st.lists(st.one_of(st.floats(), st.booleans(), st.integers(-3, 3)),
             max_size=3))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FIELD_CASES), BAD_VALUES)
def test_one_malformed_field_is_accepted_or_a_validation_error(field, value):
    name, section, key = field
    doc = copy.deepcopy(VALID_CONFIGS[name])
    holder, slot = (doc, section) if key is None else (doc[section], key)
    if value is MISSING:
        del holder[slot]
    else:
        holder[slot] = value
    if section != "bounds":
        try:
            config_from_dict(doc)
        except ValidationError:
            pass
        return
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        code = main(["bounds", "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code == 0 or (code == 2 and "config field" in err.getvalue()), err.getvalue()
