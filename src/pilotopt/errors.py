"""Exception types shared across the package."""


class PilotOptError(Exception):
    """Base class for package-specific errors."""


class DegenerateInputError(PilotOptError, ValueError):
    """An input is structurally valid but numerically degenerate (e.g. all-zero)."""


class OptimizationDivergenceError(PilotOptError, RuntimeError):
    """Non-finite loss or gradient encountered during optimization."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


class ConfigError(PilotOptError, ValueError):
    """Invalid or unknown experiment-configuration key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
