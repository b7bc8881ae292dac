"""Flat key = value configuration files (SI units, '#' comments).

Every geometric key is optional and defaults to the reference bench
:meth:`AfsharGeometry.default`; ``z_lens_to_detectors`` may be omitted
entirely, in which case it is derived from the imaging condition.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .apparatus import DEFAULT_N_SAMPLES, DEFAULT_SPACING, AfsharGeometry, imaging_distance
from .wavefield import Grid

__all__ = ["Config", "ConfigError", "load_config", "parse_config", "MAX_N_SAMPLES"]

# Largest accepted grid; a bigger one would only fail at allocation time.
MAX_N_SAMPLES = 2**20

_REFERENCE = AfsharGeometry.default()


class ConfigError(ValueError):
    """Unreadable, unparsable, or physically inconsistent configuration."""


@dataclass
class Config:
    wavelength: float = _REFERENCE.wavelength
    slit_width: float = _REFERENCE.slit_width
    slit_separation: float = _REFERENCE.slit_separation
    z_slits_to_grid: float = _REFERENCE.z_slits_to_grid
    z_grid_to_lens: float = _REFERENCE.z_grid_to_lens
    focal_length: float = _REFERENCE.focal_length
    z_lens_to_detectors: float | None = None
    wire_width: float = _REFERENCE.wire_width
    n_wires: int = _REFERENCE.n_wires
    n_samples: int = DEFAULT_N_SAMPLES
    spacing: float = DEFAULT_SPACING
    out_dir: str = "out"
    seed: int | None = None

    def geometry(self) -> AfsharGeometry:
        values = {f.name: getattr(self, f.name) for f in fields(AfsharGeometry)}
        try:
            if values["z_lens_to_detectors"] is None:
                values["z_lens_to_detectors"] = imaging_distance(
                    self.z_slits_to_grid + self.z_grid_to_lens, self.focal_length
                )
            return AfsharGeometry(**values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> Grid:
        if self.n_samples > MAX_N_SAMPLES:
            raise ConfigError(f"n_samples {self.n_samples} exceeds the limit {MAX_N_SAMPLES}")
        try:
            return Grid(n_samples=self.n_samples, spacing=self.spacing)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def parse_config(text: str) -> Config:
    cfg = Config()
    known = {f.name for f in fields(Config)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in ("n_wires", "n_samples", "seed"):
                setattr(cfg, key, int(value))
            elif key == "out_dir":
                setattr(cfg, key, value)
            else:
                setattr(cfg, key, float(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    return cfg


def load_config(path: str | Path | None) -> Config:
    """Config from a file, or the built-in defaults when no path is given."""
    if path is None:
        return Config()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text())
