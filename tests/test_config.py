import dataclasses
import inspect

import numpy as np
import pytest

from globalattn.attention import AttentionModel
from globalattn.classifier import ClassifierModel
from globalattn.config import format_fields, format_kv, parse_fields
from globalattn.errors import ConfigError
from globalattn.preprocess import PreprocessSpec
from globalattn.synthetic import SyntheticSpec
from globalattn.training import TrainConfig, config_kv, load_train_config

NON_DEFAULT_CFG = TrainConfig(
    channels=5, l1_coeff=0.125, cutoff_epoch=3, lr=0.01, batch_size=4,
    weight_decay=0.0, total_epochs=9, seed=7,
    attention_mode="l1_pixel_weights", eval_protocol="cv_epoch_selection",
    cv_folds=3, top_epochs=2, hidden_kernel=5, depth=3, last_kernel=3,
    dense_connections=True, stages=(4, 8, 2))


def test_config_kv_pins_manifest_strings():
    assert config_kv(TrainConfig()) == {
        "K": "8", "lambda": "0.03", "E": "15", "lr": "0.003",
        "batch_size": "32", "weight_decay": "0.0001", "total_epochs": "60",
        "seed": "0", "attention_mode": "pixel_cnn",
        "eval_protocol": "simple_holdout", "cv_folds": "5", "top_epochs": "5",
        "hidden_kernel": "3", "depth": "2", "last_kernel": "1",
        "dense_connections": "0", "stages": "8,16"}


@pytest.mark.parametrize("fields", [
    {"total_epochs": 0}, {"total_epochs": -3, "cutoff_epoch": 0}],
    ids=["zero", "negative"])
def test_train_config_names_total_epochs_below_one(fields):
    # checked before E, whose range [0, total_epochs] it bounds
    with pytest.raises(ConfigError, match="total_epochs must be >= 1"):
        TrainConfig(**fields)


def test_non_default_config_changes_every_field():
    for f in dataclasses.fields(TrainConfig):
        assert getattr(NON_DEFAULT_CFG, f.name) != f.default, f.name


@pytest.mark.parametrize("cfg", [TrainConfig(), NON_DEFAULT_CFG],
                         ids=["default", "non_default"])
def test_train_config_format_parse_roundtrip(tmp_path, cfg):
    path = tmp_path / "train.cfg"
    path.write_text(format_kv(config_kv(cfg)))
    assert load_train_config(path) == cfg


@pytest.mark.parametrize("model", [
    AttentionModel("pixel_cnn", in_channels=6, width=4, height=4, channels=3,
                   hidden_kernel=5, depth=3, last_kernel=3,
                   dense_connections=True, rng=np.random.default_rng(0)),
    ClassifierModel(2, 8, 8, 3, stages=(4, 8, 2),
                    rng=np.random.default_rng(0)),
], ids=["attention", "classifier"])
def test_model_header_format_parse_roundtrip(model):
    header = format_fields(model.FIELDS, model)
    kwargs = parse_fields(model.FIELDS, header, required=True)
    assert kwargs == {f.attr: getattr(model, f.attr) for f in model.FIELDS}
    back = type(model)(**kwargs, rng=np.random.default_rng(1))
    assert format_fields(back.FIELDS, back) == header


@pytest.mark.parametrize("record", [TrainConfig, SyntheticSpec,
                                    PreprocessSpec, AttentionModel,
                                    ClassifierModel])
def test_field_table_covers_every_record_field(record):
    if dataclasses.is_dataclass(record):
        names = {f.name for f in dataclasses.fields(record)}
    else:
        names = set(inspect.signature(record).parameters) - {"rng"}
    assert {f.attr for f in record.FIELDS} == names
    keys = [f.key for f in record.FIELDS]
    assert len(keys) == len(set(keys))


# every architecture rule: (the TrainConfig fields that break it, the message)
ARCH_RULES = [
    ({"attention_mode": "bogus"}, "mode must be one of"),
    ({"channels": 0}, "channels must be >= 1, got 0"),
    ({"channels": -3}, "channels must be >= 1, got -3"),
    ({"depth": 1}, "depth must be >= 2, got 1"),
    ({"hidden_kernel": 2}, "hidden_kernel must be odd and >= 1, got 2"),
    ({"hidden_kernel": -1}, "hidden_kernel must be odd and >= 1, got -1"),
    ({"last_kernel": 0}, "last_kernel must be odd and >= 1, got 0"),
    ({"last_kernel": 4}, "last_kernel must be odd and >= 1, got 4"),
    ({"stages": ()}, "stages must not be empty"),
    ({"stages": (4, 0)}, "stage width must be >= 1, got 0"),
]


def build_arch(cfg_fields):
    """Both models, built straight from the TrainConfig default architecture
    with ``cfg_fields`` put in, as a checkpoint header could spell it."""
    arch = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    arch.update(cfg_fields)
    rng = np.random.default_rng(0)
    AttentionModel(arch["attention_mode"], 4, 8, 8, arch["channels"],
                   arch["hidden_kernel"], arch["depth"], arch["last_kernel"],
                   arch["dense_connections"], rng)
    ClassifierModel(1, 8, 8, 3, arch["stages"], rng)


@pytest.mark.parametrize("fields, message", ARCH_RULES,
                         ids=[f"{key}={value}" for fields, _ in ARCH_RULES
                              for key, value in fields.items()])
def test_every_architecture_rule_runs_when_the_config_is_made(fields,
                                                              message):
    with pytest.raises(ConfigError, match=message):
        TrainConfig(**fields)
    # a checkpoint header is checked by the same rule
    with pytest.raises(ConfigError, match=message):
        build_arch(fields)


@pytest.mark.parametrize("fields, message", [
    ({"weight_decay": -1.0}, "weight_decay must be >= 0, got -1.0"),
    ({"weight_decay": -5e-324}, "weight_decay must be >= 0"),
    ({"seed": -1}, r"seed must lie in \[0, 2\^64\), got -1"),
    ({"seed": 2 ** 64}, r"seed must lie in \[0, 2\^64\)"),
    ({"seed": 2 ** 70}, r"seed must lie in \[0, 2\^64\)"),
], ids=["weight_decay=-1", "weight_decay=-5e-324", "seed=-1", "seed=2^64",
        "seed=2^70"])
def test_train_config_refuses_a_negative_weight_decay_or_a_seed_past_64_bits(
        fields, message):
    with pytest.raises(ConfigError, match=message):
        TrainConfig(**fields)


def test_train_config_accepts_the_seed_and_weight_decay_bounds():
    for fields in ({"weight_decay": 0.0}, {"weight_decay": -0.0},
                   {"seed": 0}, {"seed": 2 ** 64 - 1}):
        TrainConfig(**fields)


CV = {"eval_protocol": "cv_epoch_selection", "total_epochs": 4,
      "cutoff_epoch": 2}
CV_RULES = [
    ({"cv_folds": 1}, "cv_folds must be >= 2, got 1"),
    ({"top_epochs": 0}, r"top_epochs must lie in \[1, 4\], got 0"),
    ({"top_epochs": 5}, r"top_epochs must lie in \[1, 4\], got 5"),
]


@pytest.mark.parametrize("fields, message", CV_RULES,
                         ids=["cv_folds=1", "top_epochs=0",
                              "top_epochs=total+1"])
def test_cv_rules_run_when_a_cross_validated_config_is_made(fields, message):
    with pytest.raises(ConfigError, match=message):
        TrainConfig(**CV, **fields)
    # a holdout config never reads them
    TrainConfig(total_epochs=4, cutoff_epoch=2, **fields)
