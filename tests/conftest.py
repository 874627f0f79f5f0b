"""Shared fixtures: small models, hardware, and scenarios for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.spec import HardwareSpec
from repro.model.config import ModelConfig
from repro.routing.workload import Workload
from repro.scenario import Scenario
from repro.validation.pass_differential import SMALL_MIXTRAL, small_hardware

def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/ snapshots instead of comparing them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    """True when the run should refresh golden snapshots on disk."""
    return request.config.getoption("--update-goldens")


TINY_MOE = ModelConfig(
    name="tiny-moe",
    hidden_size=64,
    intermediate_size=128,
    num_layers=4,
    num_heads=4,
    num_kv_heads=2,
    num_experts=4,
    top_k=2,
    vocab_size=256,
)

TINY_DENSE = ModelConfig(
    name="tiny-dense",
    hidden_size=64,
    intermediate_size=128,
    num_layers=4,
    num_heads=4,
    num_kv_heads=4,
    num_experts=1,
    top_k=1,
    vocab_size=256,
    ffn_matrices=2,
)


@pytest.fixture
def tiny_moe() -> ModelConfig:
    return TINY_MOE


@pytest.fixture
def tiny_dense() -> ModelConfig:
    return TINY_DENSE


@pytest.fixture
def small_mixtral() -> ModelConfig:
    return SMALL_MIXTRAL


@pytest.fixture
def hw() -> HardwareSpec:
    return small_hardware()


@pytest.fixture
def small_workload() -> Workload:
    return Workload(batch_size=4, num_batches=3, prompt_len=32, gen_len=4)


@pytest.fixture
def small_scenario(small_mixtral, hw, small_workload) -> Scenario:
    return Scenario(small_mixtral, hw, small_workload, seed=3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
