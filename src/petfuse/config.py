"""The one reader of petfuse's JSON documents (configs, attribution plans,
checkpoint headers): each is a dataclass, read with typo and type
protection, that checks its own values when it is built. The effective
config is echoed into output directories.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .fusion import FusionConfig
from .pet import AdapterConfig, LoRAConfig
from .training import TrainConfig


@dataclass
class RunConfig:
    """What `train` and `count-params` read; the file overrides the defaults.
    `harness.ArmSpec` holds its sections to the arm's rules."""
    arm: str = "full_pet"
    policy: str = "frozen"
    fusion: FusionConfig = field(default_factory=FusionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    lora: LoRAConfig = field(default_factory=LoRAConfig)
    adapter: AdapterConfig = field(default_factory=AdapterConfig)


def build_section(name: str, cls, values):
    """`cls` read from the JSON object `values`, each field by its annotation:
    a dataclass as a section named after its key, a `list[X]` element by
    element, a str, int or float as itself, where a float field also takes an
    int that float() can represent and no number field takes a bool. A field
    without a default is required. An unknown key, a missing one or a value
    of another type is a ConfigError."""
    if not isinstance(values, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    fields = dataclasses.fields(cls)
    unknown = set(values) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in values
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing {name} keys: {missing}")
    types = typing.get_type_hints(cls)
    return cls(**{key: _read_value(name, key, types[key], value)
                  for key, value in values.items()})


def _read_value(section: str, key: str, tp, value):
    if dataclasses.is_dataclass(tp):
        return build_section(key, tp, value)
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"config value {section}.{key} must be a list, got {value!r}")
        (item,) = typing.get_args(tp)
        return [_read_value(section, f"{key}[{i}]", item, v) for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (float, int) if tp is float else tp):
        raise ConfigError(f"config value {section}.{key} must be {tp.__name__}, "
                          f"got {value!r}")
    if tp is float:
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"config value {section}.{key} is an int beyond the "
                              f"float range") from None
    return value


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at `path`; ConfigError, naming `what`,
    unless the file holds one."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    # malformed JSON, not UTF-8, an int too long to parse, or nesting too deep
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"{path}: invalid {what} JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return doc


def load_config(path=None) -> RunConfig:
    """The config in the JSON file at `path`; the defaults without one."""
    return build_section("config", RunConfig,
                         {} if path is None else read_json_object(path, "config"))


def echo_config(cfg: RunConfig, out_dir):
    path = Path(out_dir) / "config.echo.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
