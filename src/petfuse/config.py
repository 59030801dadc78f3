"""JSON config loading with typo and type protection; the file overrides the
defaults. The effective config is echoed into output directories.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .errors import ConfigError
from .fusion import FusionConfig
from .pet import AdapterConfig, LoRAConfig
from .training import TrainConfig

_SECTION_TYPES = {
    "fusion": FusionConfig,
    "train": TrainConfig,
    "lora": LoRAConfig,
    "adapter": AdapterConfig,
}

_TOP_LEVEL_SCALARS = {
    "policy": "frozen",
    "arm": "full_pet",
}

# JSON types a value may have, keyed by the type of the field's default; a
# float field takes an int that float() can represent, and no numeric field
# takes a bool
_ACCEPTED = {float: (float, int), int: (int,), str: (str,)}


def check_type(name: str, value, default):
    """Raise ConfigError unless `value` may stand where `default` does."""
    accepted = _ACCEPTED[type(default)]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"config value {name} must be {accepted[0].__name__}, "
                          f"got {value!r}")
    if isinstance(default, float):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"config value {name} is an int beyond the float "
                              f"range") from None


def build_section(name: str, cls, values):
    """`cls` built from a JSON object; unknown keys and values whose type does
    not match the field default are rejected."""
    if not isinstance(values, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(values) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    for key, value in values.items():
        check_type(f"{name}.{key}", value, defaults[key])
    return cls(**values)


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at `path`; ConfigError, naming `what`,
    unless the file holds one."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # malformed JSON, not UTF-8, or an int too long to parse
        raise ConfigError(f"{path}: invalid {what} JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return doc


def load_config(path=None) -> dict:
    """Effective config dict: dataclass sections and top-level scalars from
    the JSON file, defaults for whatever it leaves out."""
    doc = {} if path is None else read_json_object(path, "config")
    unknown = set(doc) - set(_SECTION_TYPES) - set(_TOP_LEVEL_SCALARS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    cfg = {name: build_section(name, cls, doc.get(name, {}))
           for name, cls in _SECTION_TYPES.items()}
    for name, default in _TOP_LEVEL_SCALARS.items():
        cfg[name] = doc.get(name, default)
        check_type(name, cfg[name], default)
    return cfg


def echo_config(cfg: dict, out_dir):
    doc = {}
    for key, value in cfg.items():
        doc[key] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    path = Path(out_dir) / "config.echo.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=list) + "\n",
                    encoding="utf-8")
