"""Flat key = value configuration files (SI units, '#' comments).

The keys are the fields of :class:`AfsharGeometry` plus ``n_samples``,
``spacing``, ``out_dir`` and ``seed``.  Every key is optional: a geometry
key a file leaves out keeps its value from :meth:`AfsharGeometry.default`.
The lens-to-detector distance is not a key; the geometry derives it from
the imaging condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .apparatus import DEFAULT_N_SAMPLES, DEFAULT_SPACING, AfsharGeometry
from .wavefield import Grid

__all__ = ["Config", "ConfigError", "load_config", "parse_config", "MAX_N_SAMPLES"]

# Largest accepted grid; a bigger one would only fail at allocation time.
MAX_N_SAMPLES = 2**20

_GEOMETRY_KEYS = {f.name for f in fields(AfsharGeometry)}


class ConfigError(ValueError):
    """An unreadable or unparsable config, a grid past ``MAX_N_SAMPLES``, or
    a command-line input the CLI refuses.

    A refused input is any ``ValueError``, this one included: the CLI exits
    2 on each alike, so a geometry or grid the library refuses keeps its
    own ``ValueError``.
    """


@dataclass
class Config:
    geometry_keys: dict[str, float | int] = field(default_factory=dict)
    n_samples: int = DEFAULT_N_SAMPLES
    spacing: float = DEFAULT_SPACING
    out_dir: str = "out"
    seed: int | None = None

    def geometry(self) -> AfsharGeometry:
        return replace(AfsharGeometry.default(), **self.geometry_keys)

    def grid(self) -> Grid:
        if self.n_samples > MAX_N_SAMPLES:
            raise ConfigError(f"n_samples {self.n_samples} exceeds the limit {MAX_N_SAMPLES}")
        return Grid(n_samples=self.n_samples, spacing=self.spacing)


def parse_config(text: str) -> Config:
    cfg = Config()
    known = _GEOMETRY_KEYS | {"n_samples", "spacing", "out_dir", "seed"}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        convert = {"n_wires": int, "n_samples": int, "seed": int, "out_dir": str}.get(key, float)
        try:
            if not value:  # str would take it: an empty out_dir is the current directory
                raise ValueError(value)
            parsed = convert(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
        if key in _GEOMETRY_KEYS:
            cfg.geometry_keys[key] = parsed
        else:
            setattr(cfg, key, parsed)
    return cfg


def load_config(path: str | Path | None) -> Config:
    """Config from a file, or the built-in defaults when no path is given."""
    if path is None:
        return Config()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p}: not a text file: {exc}") from None
    return parse_config(text)
