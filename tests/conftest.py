"""Shared fixtures.

Devices come pre-formatted from a cached template (mkfs once per
geometry) so the suite stays fast; every fixture yields a *fresh* state.
"""

from __future__ import annotations

import pytest

from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.hooks import HookPoints
from repro.blockdev.device import MemoryBlockDevice
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.ondisk.mkfs import formatted_device
from repro.shadowfs.checks import CheckLevel
from repro.shadowfs.filesystem import ShadowFilesystem
from repro.spec.model import SpecFilesystem


@pytest.fixture
def device() -> MemoryBlockDevice:
    return formatted_device()


@pytest.fixture
def raw_device() -> MemoryBlockDevice:
    """Unformatted device."""
    return MemoryBlockDevice(block_count=4096)


@pytest.fixture
def base(device) -> BaseFilesystem:
    return BaseFilesystem(device)


@pytest.fixture
def shadow(device) -> ShadowFilesystem:
    return ShadowFilesystem(device, check_level=CheckLevel.FULL)


@pytest.fixture
def spec() -> SpecFilesystem:
    return SpecFilesystem()


@pytest.fixture
def hooks() -> HookPoints:
    return HookPoints()


@pytest.fixture
def rae(device, hooks) -> RAEFilesystem:
    return RAEFilesystem(device, RAEConfig(), hooks=hooks)


class SeqCounter:
    """Monotone opseq supply for tests that drive raw FilesystemAPI.

    Starts above the mkfs timestamp (1) so "mtime advanced" assertions
    hold from the first operation.
    """

    def __init__(self):
        self.value = 10

    def __call__(self) -> int:
        self.value += 1
        return self.value


@pytest.fixture
def seq() -> SeqCounter:
    return SeqCounter()
