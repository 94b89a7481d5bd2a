"""Exception types shared across the package."""


class InputError(Exception):
    """A problem document or fan file could not be parsed."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; the computation cannot be trusted."""

    CHECKS = ("duality", "symmetry", "nonnegativity", "unbounded region", "refined fan",
              "orbit dimension", "ample class")  # the checks that `check` names
    subproblem = None  # (m, supports) of the e_c recursion's problem whose check fired
    depth = 0  # recursive epq_c_ci calls above that problem

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check

    def __str__(self):
        if self.subproblem is None:
            return super().__str__()
        m, supports = self.subproblem
        return (f"{super().__str__()} (subproblem m={m}, supports {supports}; "
                f"recursion depth {self.depth})")
