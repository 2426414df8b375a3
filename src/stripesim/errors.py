"""Exception and warning types shared across the simulator."""


class StripeSimError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(StripeSimError):
    """The run's inputs (configs, flags, measurement files) are invalid or
    inconsistent; the CLI exits 2 on every subclass."""


class ParseError(ConfigError):
    """Input text could not be parsed at all (malformed YAML, CSV, ...)."""


class SchemaError(ConfigError):
    """Parsed input is missing required keys or carries invalid values."""


class GeometryError(ConfigError):
    """Node/UE placement violates the scenario geometry."""


class UnsupportedModel(ConfigError):
    """Requested model or waveform tag is not implemented."""


class TouchstoneError(ConfigError):
    """Touchstone file violates the format; ``kind`` names the rule."""

    MISSING_OPTION_LINE = "MissingOptionLine"
    BAD_ROW_ARITY = "BadRowArity"
    NON_MONOTONIC_FREQUENCY = "NonMonotonicFrequency"
    UNKNOWN_FORMAT = "UnknownFormat"
    NON_FINITE_VALUE = "NonFiniteValue"
    MAGNITUDE_TOO_LARGE = "MagnitudeTooLarge"
    FILE_NOT_FOUND = "FileNotFound"
    UNDECODABLE_TEXT = "UndecodableText"

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class EmptyNetwork(StripeSimError):
    """Network holds no frequency points."""


class GridMismatch(StripeSimError):
    """Frequency response length does not match the subcarrier grid."""


class DimensionError(StripeSimError):
    """Array shapes do not line up."""


class DomainError(StripeSimError):
    """Numeric argument outside the mathematically valid domain."""


class LengthError(StripeSimError):
    """Sequence length violates the operation contract."""


class ZeroSignal(StripeSimError):
    """Operation undefined on an all-zero waveform."""


class UnsupportedMode(ConfigError):
    """Component mode tag not in the implemented set."""


class NoPilots(StripeSimError):
    """Channel estimation requested without any pilot positions."""


class FormatError(StripeSimError):
    """Binary dataset file violates the CFR1 layout."""


class ChecksumError(StripeSimError):
    """Stored checksum does not match file contents."""


class IoError(StripeSimError):
    """Dataset file could not be read or written."""


class CalibrationInfeasible(UserWarning):
    """Booster gain clipped at max_gain; target power unreachable."""


class ExtrapolationWarning(UserWarning):
    """Grid extends beyond the measured frequency span; endpoints clamped."""


class UnknownKeyWarning(UserWarning):
    """Config carries keys the simulator does not interpret."""


class TruncationWarning(UserWarning):
    """Impulse-response truncation discarded a notable energy fraction."""


class InterSymbolInterferenceRisk(UserWarning):
    """A time-domain filter keeps more taps than the cyclic prefix spans."""


class AntennaCountMismatch(UserWarning):
    """A dataset's n_tx overrides the configured RU antenna count."""
