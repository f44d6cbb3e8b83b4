import dataclasses
import inspect

import numpy as np
import pytest

from globalattn.attention import AttentionModel
from globalattn.classifier import ClassifierModel
from globalattn.config import format_fields, format_kv, parse_fields
from globalattn.preprocess import PreprocessSpec
from globalattn.synthetic import SyntheticSpec
from globalattn.training import TrainConfig, config_kv, parse_train_config

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


def test_non_default_config_changes_every_field():
    for f in dataclasses.fields(TrainConfig):
        assert getattr(NON_DEFAULT_CFG, f.name) != f.default, f.name


@pytest.mark.parametrize("cfg", [TrainConfig(), NON_DEFAULT_CFG],
                         ids=["default", "non_default"])
def test_train_config_format_parse_roundtrip(cfg):
    assert parse_train_config(format_kv(config_kv(cfg))) == cfg


@pytest.mark.parametrize("model", [
    AttentionModel("pixel_cnn", in_channels=6, width=4, height=4, channels=3,
                   hidden_kernel=5, depth=3, last_kernel=3,
                   dense_connections=True, rng=np.random.default_rng(0)),
    ClassifierModel(2, 8, 8, 3, stages=(4, 8, 2)),
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
