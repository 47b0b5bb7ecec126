"""Run configuration, and record/CSV serialization.

Config files are INI-style structured text (configparser).  ``KEYS`` is
the one table of what a file may set: the keys of ``[potential]`` (by its
``kind``), ``[domain]`` and ``[solver]``, each with its parser.  Any other
section or key is a ``ConfigError``, whichever subcommand reads the file.
``[solver] s_max`` is the log-domain horizon; the integrator tolerances,
the candidate window ends, the certificate slack and the boundary grace are
constants of ``ode`` and ``bestconst``, and the best-constant tolerance is
``best_constant``'s default.  Where a record goes, in what form and with
what wall-clock stamp are the CLI's ``--out``, ``eigen --format`` and
``--timestamp``.  Result records are emitted in the same syntax (a single
``[result]`` or ``[error]`` section) so that every record re-parses under
the config machinery.  All numbers are written with 17 significant digits
for cross-platform reproducibility.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .ode import S_MAX_DEFAULT
from .potentials import RadialPotential


def load_samples_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column CSV with header ``r,v`` and monotone radii."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != ["r", "v"]:
            raise DomainError(f"expected CSV header 'r,v' in {path}, got {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise DomainError(f"expected two columns in {path}")
    return data[:, 0], data[:, 1]


def _custom(samples: str, sigma=None, r_max=None) -> RadialPotential:
    return RadialPotential.custom(*load_samples_csv(samples), r_max, sigma)


# Every key a config file may set, with its parser (configparser lower-cases
# keys, so [domain] R is "r").  Each [potential] kind reads the keyword
# arguments of its factory in _FACTORIES.
KEYS = {
    "potential": {
        "constant": {"amplitude": float, "r_max": float},
        "power_law": {"alpha": float, "amplitude": float, "r_max": float},
        "adimurthi_log": {"m": int, "rho": float, "amplitude": float, "r_max": float},
        "filippas_tertikas_x": {"m": int, "d_scale": float, "amplitude": float, "r_max": float},
        "custom": {"samples": str, "sigma": float, "r_max": float},
    },
    "domain": {"r": float, "n": int},
    "solver": {"s_max": float, "grid_n": int, "r_min_rel": float},
}
_FACTORIES = {"constant": RadialPotential.constant, "power_law": RadialPotential.power_law,
              "adimurthi_log": RadialPotential.adimurthi_log,
              "filippas_tertikas_x": RadialPotential.filippas_tertikas, "custom": _custom}
_REQUIRED = {"power_law": "alpha", "custom": "samples"}


def _parse(section, keys: dict) -> dict:
    """The section's values, each read by its parser in ``keys``; any other
    key is a DomainError."""
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise DomainError(f"unknown key(s): {', '.join(unknown)}")
    return {key: keys[key](value) for key, value in section.items()}


def read_potential(section) -> RadialPotential:
    """Build the potential of a ``[potential]`` mapping: ``kind`` picks the
    factory, and the other keys are that kind's row of ``KEYS``."""
    section = dict(section)
    kind = section.pop("kind", "").strip().lower()
    if kind not in _FACTORIES:
        raise DomainError(f"unknown potential kind {kind!r}")
    values = _parse(section, KEYS["potential"][kind])
    required = _REQUIRED.get(kind)
    if required and required not in values:
        raise DomainError(f"{kind} potential needs key {required!r}")
    return _FACTORIES[kind](**values)


@dataclass(frozen=True)
class RunConfig:
    """Parsed CLI configuration: potential + domain + solver."""

    potential: RadialPotential
    R: float = 1.0
    n: int = 3
    grid_n: int = 10_000
    r_min_rel: float = 1e-6
    s_max: float = S_MAX_DEFAULT     # log-domain horizon, capped at 1e150


def load_config(path: str) -> RunConfig:
    """Parse and validate an INI config file into a RunConfig."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:      # no section header, a repeated key, ...
        raise ConfigError(f"{path}: {exc}".replace("\n", " ")) from exc
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    unknown = sorted(set(parser.sections()) - set(KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown section(s): {', '.join(unknown)}")
    if "potential" not in parser:
        raise ConfigError(f"{path}: missing required section [potential]")
    try:
        potential = read_potential(parser["potential"])
    except Exception as exc:  # surfaced with the offending section for diagnostics
        raise ConfigError(f"{path}: [potential] {exc}") from exc
    values = {}
    for name in ("domain", "solver"):
        try:
            values.update(_parse(parser[name] if name in parser else {}, KEYS[name]))
        except (DomainError, ValueError, configparser.Error) as exc:
            raise ConfigError(f"{path}: [{name}] {exc}") from exc
    cfg = RunConfig(potential, values.pop("r", potential.r_max), **values)
    if cfg.R <= 0:
        raise ConfigError(f"{path}: [domain] R must be positive, got {cfg.R}")
    if cfg.n < 3:
        raise ConfigError(f"{path}: [domain] dimension n must be >= 3, got {cfg.n}")
    if cfg.R > potential.r_max * (1.0 + 1e-12):
        raise ConfigError(f"{path}: [domain] R = {cfg.R} exceeds potential r_max = {potential.r_max}")
    if not cfg.s_max > 0:
        raise ConfigError(f"{path}: [solver] s_max must be positive, got {cfg.s_max}")
    if cfg.grid_n < 16:
        raise ConfigError(f"{path}: [solver] grid_n must be >= 16, got {cfg.grid_n}")
    return cfg


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def format_record(mapping: dict, section: str = "result") -> str:
    """Serialize a flat mapping as an INI section with 17-digit numerics."""
    lines = [f"[{section}]"]
    for key, value in mapping.items():
        if value is None:
            rendered = "none"
        elif isinstance(value, str):
            rendered = value
        elif isinstance(value, (bool, int, float, np.integer, np.floating)):
            rendered = format_number(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def parse_record(text: str) -> dict:
    """Inverse of format_record; values come back as strings, verbatim (a
    '%' in a message is no interpolation)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    sections = parser.sections()
    if len(sections) != 1:
        raise ConfigError(f"expected exactly one record section, found {sections}")
    return dict(parser[sections[0]])


def write_trajectory_csv(path: str, outcome, header: str) -> None:
    """Trajectory CSV, one row per accepted step, increasing abscissa."""
    cols = np.column_stack([outcome.trajectory[name] for name in header.split(",")])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in cols:
            fh.write(",".join(f"{val:.17g}" for val in row) + "\n")


def write_vector_csv(path: str, r: np.ndarray, u: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,u\n")
        for ri, ui in zip(r, u):
            fh.write(f"{ri:.17g},{ui:.17g}\n")
