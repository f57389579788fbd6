"""The run configuration's validation."""

from dataclasses import fields

import pytest

from corechar.config import RunConfig


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_every_constant_must_be_positive(name):
    with pytest.raises(ValueError, match=f"^{name} must be positive$"):
        RunConfig(**{name: 0})
