"""Public names: every module's `__all__` and the package re-exports resolve."""

import inspect
import sys

import pytest

import ehlink
from ehlink import channel, cli, decoder_energy, multi_block, oracle, single_block

MODULES = [channel, decoder_energy, single_block, multi_block, oracle, cli]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_are_public_in_their_module():
    # A name the package re-exports must still be part of its home module's
    # public API, so a deleted or renamed function cannot linger here.
    stale = [
        name
        for name, value in vars(ehlink).items()
        if not name.startswith("_")
        and not inspect.ismodule(value)
        and name not in sys.modules[value.__module__].__all__
    ]
    assert stale == []
