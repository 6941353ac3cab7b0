"""Structured key=value configuration for the command-line tools.

A config file supplies scan and series settings; command-line flags override
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
silently fall back to a default.  The file is checked for section, key and
type only; each key is named as the library call that takes it names it
(``ScanWindow``, ``residual_scan``, ``adjudicate``), and that call owns its
default and its range check.
"""

from __future__ import annotations

import configparser

#: section -> key -> type
_SCHEMA = {
    "scan": {
        "tol": float,
        "grid_density": float,
        "soft_exclusion": float,
        "pole_ceiling": float,
        "exclusion_budget": float,
    },
    "series": {"order": int},
}


def load_config(path) -> dict:
    """The file's values as keyword arguments of the library calls."""
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
            kind = _SCHEMA[section][key]
            try:
                values[key] = kind(raw)
            except ValueError as exc:
                raise ValueError(
                    f"config key {key!r} in [{section}]: {raw!r} is not a "
                    f"{kind.__name__}"
                ) from exc
    return values
