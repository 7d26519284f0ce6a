"""Tests that the package's export lists name only what their modules hold."""

import pytest

import graspsynth
import graspsynth.fe


@pytest.mark.parametrize("module", [graspsynth, graspsynth.fe],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    # a stale entry would break `from graspsynth import *`
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []
