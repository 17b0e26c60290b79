"""Unit tests for SlackVMConfig validation and helpers."""

import pytest

from repro.core import (
    ConfigError,
    DEFAULT_LEVELS,
    LEVEL_1_1,
    LEVEL_2_1,
    LEVEL_3_1,
    OversubscriptionLevel,
    SlackVMConfig,
)


def test_default_levels_are_the_papers():
    cfg = SlackVMConfig()
    assert [lv.ratio for lv in cfg.levels] == [1.0, 2.0, 3.0]
    assert cfg.levels == DEFAULT_LEVELS


def test_levels_must_be_sorted():
    with pytest.raises(ConfigError):
        SlackVMConfig(levels=(LEVEL_2_1, LEVEL_1_1))


def test_duplicate_levels_rejected():
    with pytest.raises(ConfigError):
        SlackVMConfig(levels=(LEVEL_1_1, OversubscriptionLevel(1.0)))


def test_empty_levels_rejected():
    with pytest.raises(ConfigError):
        SlackVMConfig(levels=())


def test_single_level_config_is_valid():
    cfg = SlackVMConfig(levels=(LEVEL_3_1,))
    assert cfg.levels == (LEVEL_3_1,)
