"""The label round against the dense reference round, and label sessions at
a dimension the dense engine cannot hold."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from mubqkd.gf import FieldSpec
from mubqkd.mub import basis_matrix
from mubqkd.protocol import EveStrategy, SessionConfig, run_round, session_records, session_summary
from mubqkd.stream import _BLOCK_WORDS, Draws

from dense_round import run_round_dense

EVES = {
    "none": lambda d: EveStrategy(),
    "uniform_all": lambda d: EveStrategy("intercept_resend", "uniform_all"),
    "uniform_quadratic": lambda d: EveStrategy("intercept_resend", "uniform_quadratic"),
    "fixed_quadratic_0": lambda d: EveStrategy("intercept_resend", "fixed", 0),
    "fixed_computational": lambda d: EveStrategy("intercept_resend", "fixed", d),
}


def _jsonl(round_fn, config, draws=np.random.default_rng):
    rng = draws(config.seed)
    return [json.dumps(round_fn(config, i, rng).to_json()) for i in range(config.rounds)]


@pytest.mark.parametrize("eve", list(EVES))
@pytest.mark.parametrize("spec", [FieldSpec(3, 1), FieldSpec(7, 1), FieldSpec(3, 2),
                                  FieldSpec(5, 2)], ids=lambda s: f"d{s.d}")
def test_label_round_matches_dense_round(spec, eve):
    d = spec.d
    for (mode, reps), delta, fixed_pair, seed in itertools.product(
            [("oracle", 1), ("swap", 3)], [0, d - 1], [False, True], [1, 2]):
        config = SessionConfig(
            field=spec, rounds=120, check_fraction=0.3, mode=mode, swap_repetitions=reps,
            eve=EVES[eve](d), delta_offset=delta,
            pair_label=(1, d - 1) if fixed_pair else None,
            seed=seed)
        assert _jsonl(run_round, config, Draws) == _jsonl(run_round_dense, config), config


@pytest.mark.parametrize("eve", list(EVES))
@pytest.mark.parametrize("spec", [FieldSpec(7, 1), FieldSpec(3, 2)], ids=lambda s: f"d{s.d}")
def test_dense_round_on_draws_matches_dense_round_on_generator(spec, eve):
    """The dense round on Draws plays the rounds it plays on numpy's
    Generator; test_label_round_matches_dense_round holds the label round
    to the latter."""
    d = spec.d
    for (mode, reps), seed in itertools.product([("oracle", 1), ("swap", 3)], [1, 2]):
        config = SessionConfig(field=spec, rounds=120, check_fraction=0.3, mode=mode,
                               swap_repetitions=reps, eve=EVES[eve](d), seed=seed)
        assert _jsonl(run_round_dense, config, Draws) == _jsonl(run_round_dense, config), config


@pytest.mark.parametrize("config", [
    SessionConfig(field=FieldSpec(3, 1), rounds=8, check_fraction=0.3, mode="swap",
                  swap_repetitions=_BLOCK_WORDS + 5, seed=1),
    SessionConfig(field=FieldSpec(3, 1), rounds=8, check_fraction=0.3, mode="swap",
                  swap_repetitions=2 * _BLOCK_WORDS + 5, seed=2),
    SessionConfig(field=FieldSpec(7, 1), rounds=1500, check_fraction=0.3, mode="swap",
                  swap_repetitions=3, eve=EVES["uniform_all"](7), seed=2),
    SessionConfig(field=FieldSpec(3, 2), rounds=1500, check_fraction=0.3, delta_offset=4,
                  eve=EVES["uniform_quadratic"](9), seed=3),
], ids=["d3-swap-refill-in-a-comparison", "d3-swap-skip-whole-blocks", "d7-swap-uniform-all",
        "d9-oracle-uniform-quadratic"])
def test_label_round_matches_dense_round_across_block_refills(config):
    """Both rounds on Draws, over enough words to refill the block: the same
    records, and the same next draws after the last round.  A bit-1 round
    of a d = 3 swap input compares equal states, whose swap tests the label
    round skips in one skip(reps) and the dense round plays one by one."""
    label, dense = Draws(config.seed), Draws(config.seed)
    first_block = label._hi
    bit1 = 0
    for i in range(config.rounds):
        rec = run_round(config, i, label)
        assert rec.to_jsonl() == run_round_dense(config, i, dense).to_jsonl(), i
        bit1 += rec.bit_sent == 1
    assert bit1 > 0
    assert label._hi is not first_block
    assert [label.random(), label.integers(7), label.outcome(9)] == [
        dense.random(), dense.integers(7), dense.outcome(9)]


def test_d729_session_runs_without_dense_matrices():
    spec = FieldSpec(3, 6)
    d = spec.d
    config = SessionConfig(field=spec, rounds=2000, check_fraction=1.0,
                           eve=EveStrategy("intercept_resend", "uniform_all"), seed=3)
    cached = basis_matrix.cache_info().currsize
    rate = session_summary(config, session_records(config))["check_pass_rate"]
    assert basis_matrix.cache_info().currsize == cached
    expect = 2 / (d + 1)
    assert abs(rate - expect) < 3 * np.sqrt(expect * (1 - expect) / config.rounds)


@pytest.mark.parametrize("change", [
    {"seed": 8}, {"delta_offset": 5}, {"pair_label": (2, 7)}, {"pair_label": None},
    {"eve": EveStrategy("intercept_resend", "uniform_quadratic")},
    {"eve": EveStrategy("intercept_resend", "fixed", 9)},
], ids=["seed", "delta", "pair", "no-pair", "picker", "fixed-basis"])
def test_configs_differing_in_one_value_never_share_a_plan(change):
    base = SessionConfig(field=FieldSpec(3, 2), rounds=120, check_fraction=0.3, mode="swap",
                         swap_repetitions=2, eve=EveStrategy("intercept_resend", "fixed", 4),
                         delta_offset=1, pair_label=(1, 2), seed=3)
    plan = base._plan
    other = dataclasses.replace(base, **change)
    assert other._plan is not plan
    for config in (base, other):
        assert _jsonl(run_round, config, Draws) == _jsonl(run_round_dense, config, Draws), config


@pytest.mark.parametrize("config", [
    SessionConfig(field=FieldSpec(3, 2), rounds=200, check_fraction=0.5, mode="swap",
                  swap_repetitions=2, eve=EveStrategy("intercept_resend", "uniform_all"), seed=4),
    SessionConfig(field=FieldSpec(7, 1), rounds=200, check_fraction=0.5, delta_offset=3, seed=5),
], ids=["d9-swap-eve", "d7-oracle"])
def test_label_round_on_draws_returns_plain_values(config):
    rng = Draws(config.seed)
    kinds = set()
    for i in range(config.rounds):
        rec = run_round(config, i, rng)
        kinds.add(rec.kind)
        for value in rec.to_json().values():
            assert type(value) in (int, str, bool, list, type(None)), rec
        assert rec.eve_outcome is None or [type(k) for k in rec.eve_outcome] == [int, int]
        json.dumps(rec.to_json())
    assert kinds == {"message", "check"}
