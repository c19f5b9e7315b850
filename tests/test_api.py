"""The public surface: what the package exports, the README example, value types."""

import ast
import contextlib
import dataclasses
import io
import re
from pathlib import Path

import numpy as np
import pytest

from mixgame import (DECAY_LAWS, ExperimentConfig, GameTrace, HypothesisSpace,
                     SamplePath, config_from_dict, two_state_chain)
from mixgame.dynamic import LOSS_SCHEMAS
from mixgame.online import LEARNERS
from mixgame.errors import CONFIG_FIELDS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mixgame"


def _identifiers(source: str) -> set:
    """Every name a module reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_is_used_by_the_package_demos_or_readme():
    init = PACKAGE / "__init__.py"
    exported = [alias.asname or alias.name
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    sources = [p for p in PACKAGE.glob("*.py") if p != init]
    sources += sorted((ROOT / "demos").glob("*.py"))
    used = set().union(*(_identifiers(p.read_text()) for p in sources))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = [name for name in exported if name not in used]
    assert unused == []


def _package_imports(source: str) -> set:
    """The package modules a module imports, by relative or absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("mixgame").lstrip(".")
            names |= {module.split(".")[0]} if module else {
                alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("mixgame.") for alias in node.names}
    return names


def test_bounds_plays_no_game():
    # bounds assembles closed-form rows; experiments plays every game they read
    imported = _package_imports((PACKAGE / "bounds.py").read_text())
    assert imported >= {"errors", "online", "process"}
    assert imported & {"game", "dynamic", "learner", "experiments"} == set()


def test_experiment_config_fields_are_the_read_config_keys():
    # a CONFIG_FIELDS key renamed renames a cfg attribute, so this pins both
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "model", "loss", "kind", "beta", "algorithm", "eta", "delay", "n",
        "replicates", "delta", "seed", "d_grid", "d_max"]
    assert ExperimentConfig.__module__ == "mixgame.experiments"
    assert ExperimentConfig.__doc__.startswith("A validated experiment config")
    with pytest.raises(dataclasses.FrozenInstanceError):
        _config().n = 5


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    gen, _, bound = out.getvalue().split()
    assert float(gen) <= float(bound)


def test_readme_config_table_lists_every_config_field():
    section = (ROOT / "README.md").read_text().split("## Config fields", 1)[1]
    table = section.split("\n## ", 1)[0]
    assert re.findall(r"^\| `([\w.]+)` \|", table, re.M) == list(CONFIG_FIELDS)


def test_config_choices_match_the_tables_they_select_from():
    kind, _, _ = CONFIG_FIELDS["online.delay"]
    assert kind == (int, *(f"auto-{law}" for law in DECAY_LAWS))
    kinds, _, _ = CONFIG_FIELDS["loss.kind"]
    assert set(kinds) == set(LOSS_SCHEMAS)
    algorithms, _, _ = CONFIG_FIELDS["online.algorithm"]
    assert algorithms == tuple(LEARNERS)
    loss_keys = {key for _, keys in LOSS_SCHEMAS.values() for key in keys}
    assert {f"loss.{key}" for key in {"kind", *loss_keys}} == {
        path for path in CONFIG_FIELDS if path.startswith("loss.")}
    assert {f"bounds.{law.rate}" for law in DECAY_LAWS.values()} <= set(CONFIG_FIELDS)


def _config():
    return config_from_dict({
        "process": {"transition": [[0.8, 0.2], [0.3, 0.7]]},
        "loss": {"losses": [[0.0, 1.0], [1.0, 0.0]]},
        "experiment": {"n": 10}})


@pytest.mark.parametrize("make", [
    lambda: HypothesisSpace([[0.0, 1.0], [1.0, 0.0]]),
    lambda: two_state_chain(0.2, 0.3),
    lambda: SamplePath(np.zeros(3, dtype=np.int64)),
    lambda: GameTrace(np.full((2, 2), 0.5), np.zeros((2, 2)), np.zeros(2)),
    _config,
], ids=["HypothesisSpace", "ProcessModel", "SamplePath",
        "GameTrace", "ExperimentConfig"])
def test_array_holding_values_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
