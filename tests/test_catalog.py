import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from budgetagents.catalog import ModelCatalog, ModelSpec, estimate_cost
from budgetagents.profile import profile_from_dict
from budgetagents.topology import expand_pool

DEEPSEEK = ModelSpec("deepseek-v3", 1, 0.27, 1.10, "deepseek")
NANO = ModelSpec("gpt-4.1-nano", 2, 0.10, 0.40, "openai")


def test_cost_deepseek_pricing():
    assert estimate_cost(DEEPSEEK, t_in=500, t_out=1000) == pytest.approx(1235.0, abs=1e-9)


def test_cost_zero_tokens():
    assert estimate_cost(DEEPSEEK, 0, 0) == 0.0


def test_cost_nano_two_agent_floor():
    one_call = estimate_cost(NANO, 500, 500)
    assert one_call == pytest.approx(250.0, abs=1e-9)
    assert 2 * one_call == pytest.approx(500.0, abs=1e-9)


def test_cost_rejects_negative_tokens():
    with pytest.raises(ValueError):
        estimate_cost(NANO, -1, 0)


@given(
    t_in=st.integers(min_value=0, max_value=10_000),
    t_out=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=0, max_value=50),
)
def test_cost_linear_in_each_token_count(t_in, t_out, k):
    base = estimate_cost(NANO, t_in, t_out)
    assert estimate_cost(NANO, t_in + k, t_out) == pytest.approx(
        base + k * NANO.price_in, rel=1e-12, abs=1e-12
    )
    assert estimate_cost(NANO, t_in, t_out + k) == pytest.approx(
        base + k * NANO.price_out, rel=1e-12, abs=1e-12
    )


def test_cost_monotone_in_tier_price_at_default_t_in():
    cheap = estimate_cost(NANO, 500, 500)
    pricey = estimate_cost(DEEPSEEK, 500, 500)
    assert pricey >= cheap


def _t_out(samples):
    """The output-token bound a profile derives from its samples."""
    return profile_from_dict({"tasks": [], "output_token_samples": samples}).t_out


def test_output_tokens_max():
    assert _t_out([120, 480, 333]) == 480
    assert _t_out([7]) == 7


def test_output_tokens_scripted_samples():
    # 50 scripted outputs with a known maximum of 512
    lengths = [((i * 37) % 400) + 50 for i in range(49)] + [512]
    assert max(lengths) == 512
    assert _t_out(lengths) == 512


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("bad", 0, 0.1, 0.1, "x")
    with pytest.raises(ValueError):
        ModelSpec("bad", 1, -0.1, 0.1, "x")


def test_catalog_tier_coverage():
    with pytest.raises(ValueError, match="without gaps"):
        ModelCatalog([DEEPSEEK, ModelSpec("skipped", 3, 0.1, 0.1, "x")])
    catalog = ModelCatalog([DEEPSEEK, NANO])
    assert catalog.num_tiers == 2
    assert catalog.tier_models(2) == [NANO]


def test_catalog_tier_costs():
    catalog = ModelCatalog([DEEPSEEK, NANO])
    assert catalog.tier_costs(500, 1000) == pytest.approx([1235.0, 450.0])


def test_catalog_multi_model_tier_uses_max_cost():
    costly = ModelSpec("nano-alt", 2, 0.20, 0.80, "openai")
    catalog = ModelCatalog([DEEPSEEK, NANO, costly])
    assert catalog.tier_costs(500, 500) == pytest.approx([685.0, 500.0])


def test_instances_cycle_declaration_order():
    # A tier with several members cycles through them in declaration order.
    alt = ModelSpec("nano-alt", 2, 0.10, 0.40, "openai")
    pool = expand_pool(ModelCatalog([DEEPSEEK, NANO, alt]), (1, 3))
    assert [(i.model, i.label) for i in pool] == [
        (DEEPSEEK, "deepseek-v3#1"),
        (NANO, "gpt-4.1-nano#1"),
        (alt, "nano-alt#1"),
        (NANO, "gpt-4.1-nano#2"),
    ]


def test_catalog_json_round_trip(tmp_path):
    catalog = ModelCatalog([DEEPSEEK, NANO])
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog.to_dict()))
    loaded = ModelCatalog.load(path)
    assert loaded.models == catalog.models
    assert loaded.content_hash() == catalog.content_hash()


def _model(**overrides):
    entry = {"name": "m", "tier": 1, "price_in_per_mtok": 1.0, "price_out_per_mtok": 1.0, "backend_id": "x"}
    return {"models": [dict(entry, **overrides)]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"models": ["a"]}, "models[0] must be an object, got 'a'"),
        ({"models": "a"}, "models must be a list, got 'a'"),
        ([], "catalog must be an object, got []"),
        (_model(tier=None), "models[0].tier must be an integer, got None"),
        (_model(tier=1.7), "models[0].tier must be an integer, got 1.7"),
        (_model(tier=True), "models[0].tier must be an integer, got True"),
        (_model(price_in_per_mtok="0.1"), "models[0].price_in_per_mtok must be a finite number, got '0.1'"),
        (_model(price_out_per_mtok=float("nan")), "models[0].price_out_per_mtok must be a finite number, got nan"),
        (_model(name=7), "models[0].name must be a string, got 7"),
        (_model(backend_id=["x"]), "models[0].backend_id must be a string, got ['x']"),
        (_model(teir=2), "unknown field models[0].teir; expected one of name, tier, "),
    ],
    ids=["entry_not_object", "models_not_list", "doc_not_object", "tier_null", "tier_float", "tier_bool",
         "price_string", "price_nan", "name_number", "backend_id_list", "unknown_model_field"],
)
def test_from_dict_rejects_malformed_entries(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        ModelCatalog.from_dict(doc)


def test_integer_prices_load_as_floats():
    as_ints = ModelCatalog.from_dict(_model(price_in_per_mtok=1, price_out_per_mtok=2))
    as_floats = ModelCatalog.from_dict(_model(price_in_per_mtok=1.0, price_out_per_mtok=2.0))
    model = as_ints.models[0]
    assert type(model.price_in) is float and type(model.price_out) is float
    assert as_ints.content_hash() == as_floats.content_hash()
