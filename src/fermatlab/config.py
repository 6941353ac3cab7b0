"""Structured key=value configuration for the command-line tools.

A config file supplies scan and series defaults; command-line flags override
whatever the file says.  Format (configparser syntax, all keys optional):

    [scan]
    tol = 1e-8
    grid_density = 20
    soft_exclusion = 0.05
    pole_ceiling = 1e8
    exclusion_budget = 0.2

    [series]
    order = 40

Unknown sections or keys are rejected: a typo should fail loudly, not
silently fall back to a default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace


#: highest ``[series] order`` accepted: exact adjudication time grows about
#: as order**4, so a larger order would keep the command busy for minutes
MAX_SERIES_ORDER = 400


@dataclass(frozen=True)
class Config:
    tol: float = 1e-8
    grid_density: float = 20.0
    soft_exclusion: float = 0.05
    pole_ceiling: float = 1e8
    exclusion_budget: float = 0.20
    series_order: int = 40

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.grid_density < 4:
            raise ValueError("grid_density must be at least 4")
        if self.soft_exclusion <= 0:
            raise ValueError("soft_exclusion must be positive")
        if self.pole_ceiling <= 0:
            raise ValueError("pole_ceiling must be positive")
        if not (0 < self.exclusion_budget <= 1):
            raise ValueError("exclusion_budget must be in (0, 1]")
        if not 10 <= self.series_order <= MAX_SERIES_ORDER:
            raise ValueError(
                f"series order must be between 10 and {MAX_SERIES_ORDER}"
            )

    def override(self, **kwargs) -> "Config":
        """New Config with the non-None entries of kwargs applied."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


#: section -> key -> (Config field, type)
_SCHEMA = {
    "scan": {
        "tol": ("tol", float),
        "grid_density": ("grid_density", float),
        "soft_exclusion": ("soft_exclusion", float),
        "pole_ceiling": ("pole_ceiling", float),
        "exclusion_budget": ("exclusion_budget", float),
    },
    "series": {"order": ("series_order", int)},
}


def load_config(path) -> Config:
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            field, kind = _SCHEMA[section][key]
            try:
                values[field] = kind(raw)
            except ValueError as exc:
                raise ValueError(
                    f"config key {key!r} in [{section}]: {raw!r} is not a "
                    f"{kind.__name__}"
                ) from exc
    return Config(**values)
