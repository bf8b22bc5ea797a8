"""Every lazily re-exported 2-D name resolves.

`driftspectra` and `driftspectra.cli` re-export names of `disk` and
`bounds` through module `__getattr__` tables, so a rename there would
otherwise surface only at a user's first access.
"""

import pytest

import driftspectra
from driftspectra import cli


@pytest.mark.parametrize("name", sorted(driftspectra._LAZY) + sorted(driftspectra._LAZY_NAMES))
def test_package_lazy_name_resolves(name):
    assert getattr(driftspectra, name) is not None


@pytest.mark.parametrize("name", sorted(cli._LAZY_2D))
def test_cli_lazy_name_resolves(name):
    assert callable(getattr(cli, name))
