"""Run configuration, and record/CSV serialization.

Config files and records are INI-style text, read by ``read_ini``, whose
grammar is strict and small: ``[name]`` section headers; ``key = value``
or ``key: value`` lines, split at the first ``=`` or ``:``, the key
lower-cased and both sides stripped; blank lines; and whole-line comments
that start with ``#`` or ``;``.  A value is taken verbatim: no inline
comments, no ``%`` interpolation, no continuation lines, no ``[DEFAULT]``
section.  Anything else (a line before the first header, a line with no
delimiter or an empty key, a malformed header, a repeated section or key)
is a ``ConfigError`` that names its line.  ``KEYS`` is the one table of
what a config may set: the keys of ``[potential]`` (by its ``kind``),
``[domain]`` and ``[solver]``, each with its parser.  Any other section or
key is a ``ConfigError``, whichever subcommand reads the file.
``[solver] s_max`` is the log-domain horizon (default 1e300,
``ode.S_MAX_DEFAULT``, where the log families' band is ~1e-4 wide); the
Euler cells of a log-family sweep and the undecided sliver are constants of
``ode`` and ``bestconst``, and the best-constant tolerance is ``best_constant``'s
default.  Where a record goes, in what form and with what wall-clock
stamp are the CLI's ``--out``, ``eigen --format`` and ``--timestamp``.
Result records are emitted in the same syntax (a single ``[result]`` or
``[error]`` section), so that every record re-parses with
``parse_record``.  All numbers are written with 17 significant digits for
cross-platform reproducibility.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .ode import S_MAX_DEFAULT
from .potentials import RadialPotential


def read_ini(text: str) -> dict:
    """{section: {key: value}} of INI text in the module's grammar; a
    ConfigError names the first offending line."""
    sections, current = {}, None
    for number, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line[0] in "#;":
            continue
        if line[0] == "[":
            name = line[1:-1]
            if line[-1] != "]" or not name:
                raise ConfigError(f"line {number}: malformed section header {line!r}")
            if name in sections:
                raise ConfigError(f"line {number}: repeated section [{name}]")
            current = sections[name] = {}
            continue
        if current is None:
            raise ConfigError(f"line {number}: {line!r} before the first section header")
        key, cut, value = line.partition("=")
        if not cut or ":" in key:    # split at the first delimiter
            key, cut, value = line.partition(":")
        key = key.strip().lower()
        if not cut or not key:
            raise ConfigError(f"line {number}: expected 'key = value', got {line!r}")
        if key in current:
            raise ConfigError(f"line {number}: repeated key {key!r} in [{name}]")
        current[key] = value.strip()
    return sections


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


def _custom(samples: str, r_max=None) -> RadialPotential:
    return RadialPotential.custom(*load_samples_csv(samples), r_max)


# Every key a config file may set, with its parser (read_ini lower-cases keys,
# so [domain] R is "r").  Each [potential] kind reads the keyword
# arguments of its factory in _FACTORIES.
KEYS = {
    "potential": {
        "constant": {"amplitude": float, "r_max": float},
        "power_law": {"alpha": float, "amplitude": float, "r_max": float},
        "adimurthi_log": {"m": int, "rho": float, "amplitude": float, "r_max": float},
        "filippas_tertikas_x": {"m": int, "d_scale": float, "amplitude": float, "r_max": float},
        "custom": {"samples": str, "r_max": float},
    },
    "domain": {"r": float, "n": int},
    "solver": {"s_max": float, "grid_n": int, "r_min_rel": float},
}
_FACTORIES = {"constant": RadialPotential.constant, "power_law": RadialPotential.power_law,
              "adimurthi_log": RadialPotential.adimurthi_log,
              "filippas_tertikas_x": RadialPotential.filippas_tertikas, "custom": _custom}
_REQUIRED = {"power_law": "alpha", "custom": "samples"}


def _parse(section, keys: dict) -> dict:
    """The section's values, each read by its parser in ``keys``; another key is a DomainError."""
    if not keys.keys() >= section.keys():
        raise DomainError(f"unknown key(s): {', '.join(sorted(section.keys() - keys.keys()))}")
    return {key: keys[key](value) for key, value in section.items()}


def read_potential(section) -> RadialPotential:
    """Build the potential of a ``[potential]`` mapping: ``kind`` picks the
    factory, and the other keys are that kind's row of ``KEYS``."""
    kind = section.get("kind", "").strip().lower()
    if kind not in _FACTORIES:
        raise DomainError(f"unknown potential kind {kind!r}")
    values = _parse(section, {"kind": str, **KEYS["potential"][kind]})
    del values["kind"]
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
    r_min_rel: float = 1e-6          # the FE log grid's first node over R, in (0, 1)
    s_max: float = S_MAX_DEFAULT     # log-domain horizon, positive and finite


def load_config(path: str) -> RunConfig:
    """Parse and validate an INI config file into a RunConfig."""
    try:    # unbuffered bytes, decoded whole, with the newlines text mode reads
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode().replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r} not found or unreadable") from exc
    try:
        sections = read_ini(text)
    except ConfigError as exc:      # no section header, a repeated key, ...
        raise ConfigError(f"{path}: {exc}") from exc
    if not KEYS.keys() >= sections.keys():
        raise ConfigError(f"{path}: unknown section(s): {', '.join(sorted(sections - KEYS.keys()))}")
    if "potential" not in sections:
        raise ConfigError(f"{path}: missing required section [potential]")
    try:
        potential = read_potential(sections["potential"])
    except Exception as exc:  # surfaced with the offending section for diagnostics
        raise ConfigError(f"{path}: [potential] {exc}") from exc
    values = {}
    for name in ("domain", "solver"):
        try:
            values.update(_parse(sections[name], KEYS[name]) if name in sections else ())
        except (DomainError, ValueError) as exc:
            raise ConfigError(f"{path}: [{name}] {exc}") from exc
    cfg = RunConfig(potential, values.pop("r", potential.r_max), **values)
    if not cfg.R > 0:
        raise ConfigError(f"{path}: [domain] R must be positive, got {cfg.R}")
    if cfg.n < 3:
        raise ConfigError(f"{path}: [domain] dimension n must be >= 3, got {cfg.n}")
    if cfg.R > potential.r_max * (1.0 + 1e-12):
        raise ConfigError(f"{path}: [domain] R = {cfg.R} exceeds potential r_max = {potential.r_max}")
    if not 0 < cfg.s_max < np.inf:
        raise ConfigError(f"{path}: [solver] s_max must be positive and finite, got {cfg.s_max}")
    if cfg.grid_n < 16:
        raise ConfigError(f"{path}: [solver] grid_n must be >= 16, got {cfg.grid_n}")
    if not 0 < cfg.r_min_rel < 1:
        raise ConfigError(f"{path}: [solver] r_min_rel must be in (0, 1), got {cfg.r_min_rel}")
    return cfg


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def _render(value) -> str:
    """A record value of a type ``_RENDER`` lacks: numbers to 17 digits, else str."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}" if isinstance(value, (float, np.floating)) else str(value)


# ``_render`` by exact type, in builtins: no Python call for the values a record holds
_RENDER = {float: "{:.17g}".format, str: str, int: str, bool: ("false", "true").__getitem__,
           type(None): {None: "none"}.__getitem__}


def format_record(mapping: dict, section: str = "result") -> str:
    """Serialize a flat mapping as an INI section with 17-digit numerics."""
    lines = [f"[{section}]"]
    for key, value in mapping.items():
        lines.append(f"{key} = {_RENDER.get(type(value), _render)(value)}")
    return "\n".join(lines) + "\n"


def parse_record(text: str) -> dict:
    """Inverse of format_record; values come back as strings, verbatim."""
    sections = read_ini(text)
    if len(sections) != 1:
        raise ConfigError(f"expected exactly one record section, found {list(sections)}")
    return sections.popitem()[1]


def write_text(path: str, text: str) -> None:
    """Write a record or a CSV to ``path``; a path that cannot be written is
    a ConfigError naming it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def write_csv(path: str, header: str, columns) -> None:
    """A CSV under ``header``, one row per index of the equal-length ``columns``,
    each value to 17 significant digits."""
    write_text(path, header + "\n" + "".join(",".join(f"{val:.17g}" for val in row) + "\n"
                                              for row in zip(*columns)))
