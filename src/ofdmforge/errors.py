"""Exception types shared across the package."""


class ForgeError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidScenarioError(ForgeError, ValueError):
    """Scenario parameters cannot yield a valid pulse dimensioning."""


class DegeneratePulseError(ForgeError, ValueError):
    """Pulse has no energy (e.g. every effective weight is zero)."""


class UndefinedSidelobesError(ForgeError, ValueError):
    """No autocorrelation lag falls outside the mainlobe exclusion zone."""


class CodecError(ForgeError, ValueError):
    """Genome bit string does not match the requested decode shape."""


class InvalidSeedError(ForgeError, ValueError):
    """Seed genome violates the optimizer's box bounds."""


class InsufficientDataError(ForgeError, ValueError):
    """Not enough samples to estimate a distribution-derived quantity."""


class DegenerateTargetError(ForgeError, ValueError):
    """Target reflectivity spectrum is identically zero."""


class ContractViolationError(ForgeError, ValueError):
    """An input breaks a normalization precondition of the SNR metric."""


class NonFiniteFitnessError(ForgeError, ValueError):
    """An optimizer's fitness returned NaN or infinity for a genome."""

    def __init__(self, generation: int, genome: int, value: object):
        super().__init__(
            f"generation {generation}: genome {genome} of the evaluated batch "
            f"has non-finite fitness {value}"
        )
        self.generation = generation
        self.genome = genome


class ConfigError(ForgeError, ValueError):
    """Experiment configuration is malformed or incomplete."""
