"""Exception types shared across the package."""


class DegenerateInputError(ValueError):
    """Raised when the requested quantity is undefined for the given input,
    e.g. a direction-dependent weight evaluated at the zero frequency."""


class DivergedError(RuntimeError):
    """Raised when time integration produces non-finite values: at step (counted
    from the start of the run, each of size h), in the place that detail names."""

    def __init__(self, step, h, detail):
        self.step, self.h, self.detail = step, h, detail

    def __str__(self):
        return f"solution blew up at step {self.step}, t={self.step * self.h:.6g}: {self.detail}"
