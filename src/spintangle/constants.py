"""Physical constants used for hyperfine-to-position inversion.

All values are SI. The gyromagnetic ratios are angular (rad s^-1 T^-1).
The environment variable SPINTANGLE_CONSTANTS may point to a JSON file
mapping any of mu0/hbar/gamma_e/gamma_n_c13 to positive, finite values.
apply_env_overrides reads it: the CLI before every command, a library caller
when it wants them.  The values in force are reflected in the provenance hash.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys

CONSTANTS_ENV_VAR = "SPINTANGLE_CONSTANTS"

MU0 = 4.0 * math.pi * 1e-7          # vacuum permeability, T m / A
HBAR = 1.0545718e-34                # reduced Planck constant, J s
GAMMA_E = 1.760859644e11            # electron gyromagnetic ratio, rad / s / T
GAMMA_C13 = 6.728284e7              # 13C nuclear gyromagnetic ratio, rad / s / T

ANGSTROM = 1e-10

KHZ = 2.0 * math.pi * 1e3           # plain kHz -> angular rad/s

_ATTR_BY_KEY = {"mu0": "MU0", "hbar": "HBAR", "gamma_e": "GAMMA_E",
                "gamma_n_c13": "GAMMA_C13"}
CONSTANTS_TABLE = {key: globals()[attr] for key, attr in _ATTR_BY_KEY.items()}
_DEFAULTS = dict(CONSTANTS_TABLE)


def apply_env_overrides() -> None:
    """Set the constants to the defaults, updated from the SPINTANGLE_CONSTANTS
    file when the variable is set.  A bad file raises one ValueError naming
    the variable, the path and the key, and changes no constant."""
    path, table = os.environ.get(CONSTANTS_ENV_VAR), dict(_DEFAULTS)
    if path:
        where = f"{CONSTANTS_ENV_VAR} file {path!r}"
        try:
            with open(path) as fh:
                overrides = json.load(fh)
        except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            raise ValueError(f"{where}: {exc}") from None
        if not isinstance(overrides, dict):
            raise ValueError(f"{where} must hold a JSON object, got {overrides!r}")
        for key, value in overrides.items():
            # a known key and a JSON number (type() leaves out true and false)
            # that is a positive float
            if key not in table or not (type(value) in (int, float)
                                        and 0 < value <= sys.float_info.max):
                raise ValueError(f"{where}: {key!r}: {value!r}; the keys are "
                                 f"{', '.join(table)}, each a positive, finite number")
            table[key] = float(value)
    for key, value in table.items():
        globals()[_ATTR_BY_KEY[key]] = value
    CONSTANTS_TABLE.update(table)


def constants_hash() -> str:
    """Short stable digest of the constants table, for provenance headers."""
    text = ",".join(f"{k}={v:.12e}" for k, v in sorted(CONSTANTS_TABLE.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:12]
