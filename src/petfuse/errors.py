"""Exception hierarchy shared across the package."""

from contextlib import contextmanager

import numpy as np


class PetfuseError(Exception):
    """Base class for all petfuse errors."""


class ShapeError(PetfuseError):
    """Tensor dimensions do not agree."""


class NumericError(PetfuseError):
    """Non-finite values where finite ones are required."""


@contextmanager
def numeric_guard(what: str):
    """Run the block with float64 overflow and invalid operations raised, not
    warned about; either one is a NumericError naming `what`."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise NumericError(f"{what}: {e}") from e


class ConfigError(PetfuseError):
    """Invalid or unknown configuration value."""


class InputError(PetfuseError):
    """Invalid user-supplied data."""


class ParseError(InputError):
    """Manifest or lexicon file failed to parse; message names the line."""


class PolicyError(PetfuseError):
    """A tuning policy is unknown, misconfigured, or finds no encoder tensor it targets."""


class SearchError(PetfuseError):
    """Budget search found no candidate within tolerance."""
