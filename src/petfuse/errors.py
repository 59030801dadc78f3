"""Exception hierarchy shared across the package."""


class PetfuseError(Exception):
    """Base class for all petfuse errors."""


class ShapeError(PetfuseError):
    """Tensor dimensions do not agree."""


class NumericError(PetfuseError):
    """Non-finite values where finite ones are required."""


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
