"""Physical constants used for hyperfine-to-position inversion.

All values are SI. The gyromagnetic ratios are angular (rad s^-1 T^-1).
The environment variable SPINTANGLE_CONSTANTS may point to a JSON file
mapping any of mu0/hbar/gamma_e/gamma_n_c13 to replacement values; it is
read once at import and reflected in the provenance hash.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

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


def _apply_env_overrides() -> None:
    path = os.environ.get(CONSTANTS_ENV_VAR)
    if not path:
        return
    with open(path) as fh:
        table = json.load(fh)
    unknown = set(table) - set(_ATTR_BY_KEY)
    if unknown:
        raise ValueError(
            f"{CONSTANTS_ENV_VAR} file {path!r} has unknown keys: "
            f"{', '.join(sorted(unknown))}")
    for key, value in table.items():
        globals()[_ATTR_BY_KEY[key]] = float(value)
        CONSTANTS_TABLE[key] = float(value)


_apply_env_overrides()


def constants_hash() -> str:
    """Short stable digest of the constants table, for provenance headers."""
    text = ",".join(f"{k}={v:.12e}" for k, v in sorted(CONSTANTS_TABLE.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:12]
