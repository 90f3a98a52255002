"""Every config field states its rule on the field, and every refusal of a
bad value reads "<name> must be <what>, not <value>".

A field kept without a rule goes on NO_RULE, with its reason.
"""

import dataclasses
import re

import numpy as np
import pytest

from facealign.cascade import TrainConfig
from facealign.errors import (BOOL, FINITE, FRACTION, INTEGER, NON_NEGATIVE, NUMBER, POSITIVE,
                              STRING, UNIT, DataError, at_least, is_a, one_of, or_none, require)
from facealign.heatmaps import SynthConfig
from facealign.pipeline import RunConfig
from facealign.shapes import AugmentConfig
from facealign.synthetic import CorpusConfig

CONFIGS = (TrainConfig, SynthConfig, CorpusConfig, AugmentConfig, RunConfig)

NO_RULE = {
    # real_range checks a (lo, hi) pair and stores it as a tuple
    ("TrainConfig", "tau_range"): "a range",
    ("CorpusConfig", "scale_range"): "a range",
}


def unruled():
    return [(cls.__name__, f.name) for cls in CONFIGS for f in dataclasses.fields(cls)
            if "rule" not in f.metadata]


def test_every_config_field_has_a_rule():
    assert [f for f in unruled() if f not in NO_RULE] == []


@pytest.mark.parametrize("config, name", sorted(NO_RULE))
def test_listed_fields_still_have_no_rule(config, name):
    assert (config, name) in unruled()


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_defaults_meet_their_rules(cls):
    cls()


def test_the_first_bad_field_in_declaration_order_is_named():
    with pytest.raises(ValueError, match=r"^K1 must be an integer >= 1, not 0$"):
        TrainConfig(Z=0, depth=-1, K1=0)
    with pytest.raises(DataError, match=r"^init_mode must be one of \['3d', 'mean'\], not 'x'$"):
        RunConfig(seed=-1, init_mode="x")


def test_a_dict_default_is_copied_for_each_instance():
    a, b = RunConfig(), RunConfig()
    a.train["T"] = 3
    assert b.train == {} and RunConfig().train == {}


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("rule, good, bad", [
    (at_least(2), [2, 7, np.int64(3)], [1, 2.0, True, "2", None]),
    (one_of(("a", "b")), ["a", "b"], ["c", None, ["a"]]),
    (or_none(STRING), [None, ""], [1, b"x"]),
    (or_none(at_least(1)), [None, 1], [0, 1.5]),
    (is_a(list, "a list"), [[], [1]], [(), {}]),
    (INTEGER, [0, -3], [1.0, True, "1"]),
    (NUMBER, [0, 2.5, NAN], [True, "1", None]),
    (FINITE, [0, -1.5], [NAN, INF, -INF, True, "1"]),
    (POSITIVE, [1e-300, 3], [0, -1, NAN, INF, True]),
    (NON_NEGATIVE, [0, 0.0, 2], [-1e-300, NAN, INF, False]),
    (UNIT, [0, 1, 0.5], [-0.1, 1.1, NAN, True]),
    (FRACTION, [1, 0.5], [0, 1.5, NAN, True]),
    (BOOL, [True, False], [0, 1, "true", None]),
], ids=lambda v: v[1] if isinstance(v, tuple) else None)
def test_rule(rule, good, bad):
    for v in good:
        assert require("x", v, rule) is v
    for v in bad:
        message = f"x must be {rule[1]}, not {v!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            require("x", v, rule, DataError)


def test_deform_style_names_its_values():
    with pytest.raises(ValueError, match=re.escape(
            "deform_style must be one of ['independent', 'coupled'], not 'x'")):
        CorpusConfig(deform_style="x")
