"""The run configuration: every effective constant the bounds leave open.

The source material fixes none of xi0, a, A, c0, b numerically (they are
absolute-but-unspecified constants), so they live here as explicit,
report-echoed configuration.  Defaults are desk-scale stand-ins.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

__all__ = ["RunConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class RunConfig:
    xi0: float = 1e-4
    c0: float = 1.0
    a: float = 1.0
    A: float = 1.0
    b: float = 2.4          # zero-density exponent (the 12/5 default)
    korobov_residual_constant: float = 10.0
    work_budget: float = 1e9

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:  # NaN fails > 0
                raise ValueError(f"{f.name} must be positive")

    def as_dict(self) -> dict:
        """The constants echoed in every report."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Parse a key=value file (blank lines and # comments ignored)."""
        values: dict = {}
        casts = {f.name: type(f.default) for f in fields(cls)}
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in casts:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = casts[key](val)
        return cls(**values)


DEFAULT_CONFIG = RunConfig()
