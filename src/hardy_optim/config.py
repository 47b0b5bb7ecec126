"""Solver settings, run configuration, and record/CSV serialization.

Config files are INI-style structured text (configparser) with sections
``[potential]``, ``[domain]``, ``[solver]`` and ``[output]``.  ``[solver]``
takes the log-domain horizon ``s_max`` (the one ``SolverSettings`` field)
plus the FE grid keys ``grid_n`` and ``r_min_rel``, and rejects any other
key with ``ConfigError``; the integrator tolerances, the tail sample count,
the certificate slack and the boundary grace are constants of ``ode`` and
``bestconst``, and the best-constant tolerance is ``best_constant``'s
default.  ``[output]`` takes only ``timestamp``
(true/false), since where a record goes and in what form are the CLI's
``--out`` and ``--format``.  Result records are emitted in the same syntax (a
single ``[result]`` or ``[error]`` section) so that every record re-parses
under the config machinery.  All numbers are written with 17 significant
digits for cross-platform reproducibility.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .ode import S_MAX_DEFAULT
from .potentials import RadialPotential

@dataclass(frozen=True)
class SolverSettings:
    """The numerical knob a caller sets per run."""

    s_max: float = S_MAX_DEFAULT     # log-domain horizon, capped at 1e150

    def validated(self) -> "SolverSettings":
        if not self.s_max > 0:
            raise ConfigError(f"solver setting s_max must be positive, got {self.s_max}")
        return self


@dataclass(frozen=True)
class RunConfig:
    """Parsed CLI configuration: potential + domain + solver + output."""

    potential: RadialPotential
    R: float = 1.0
    n: int = 3
    grid_n: int = 10_000
    r_min_rel: float = 1e-6
    settings: SolverSettings = field(default_factory=SolverSettings)
    timestamp: bool = False


def load_config(path: str) -> RunConfig:
    """Parse and validate an INI config file into a RunConfig."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    if "potential" not in parser:
        raise ConfigError(f"{path}: missing required section [potential]")
    try:
        potential = RadialPotential.from_config(dict(parser["potential"]))
    except Exception as exc:  # surfaced with the offending section for diagnostics
        raise ConfigError(f"{path}: [potential] {exc}") from exc

    dom = parser["domain"] if "domain" in parser else {}
    try:
        R = float(dom.get("r", potential.r_max))
        n = int(dom.get("n", 3))
    except ValueError as exc:
        raise ConfigError(f"{path}: [domain] {exc}") from exc
    if R <= 0:
        raise ConfigError(f"{path}: [domain] R must be positive, got {R}")
    if n < 3:
        raise ConfigError(f"{path}: [domain] dimension n must be >= 3, got {n}")
    if R > potential.r_max * (1.0 + 1e-12):
        raise ConfigError(f"{path}: [domain] R = {R} exceeds potential r_max = {potential.r_max}")

    sol = parser["solver"] if "solver" in parser else {}
    unknown = sorted(set(sol) - {"s_max", "grid_n", "r_min_rel"})
    if unknown:
        raise ConfigError(f"{path}: [solver] unknown key(s): {', '.join(unknown)}")
    try:
        settings = SolverSettings(float(sol.get("s_max", SolverSettings.s_max))).validated()
        grid_n = int(sol.get("grid_n", 10_000))
        r_min_rel = float(sol.get("r_min_rel", 1e-6))
    except ValueError as exc:
        raise ConfigError(f"{path}: [solver] {exc}") from exc
    if grid_n < 16:
        raise ConfigError(f"{path}: [solver] grid_n must be >= 16, got {grid_n}")

    out = parser["output"] if "output" in parser else {}
    return RunConfig(
        potential=potential, R=R, n=n, grid_n=grid_n, r_min_rel=r_min_rel,
        settings=settings,
        timestamp=out.get("timestamp", "false").strip().lower() in ("1", "true", "yes"),
    )


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
    """Inverse of format_record; values come back as strings."""
    parser = configparser.ConfigParser()
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
