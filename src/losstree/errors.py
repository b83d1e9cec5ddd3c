"""Exception types shared across the package, and the argument checks that raise them."""

import math
import numbers

import numpy as np


class LossTreeError(ValueError):
    """Base class for all input and contract violations."""


class CycleDetected(LossTreeError):
    """The edge list contains a cycle."""


class DisconnectedInput(LossTreeError):
    """Some node is not reachable from the root."""


class DegreeViolation(LossTreeError):
    """A node violates the degree rules (unary internal node, multi-child root)."""


class MalformedLine(LossTreeError):
    """A line of a topology file does not have the form the format requires."""


class ParameterOutOfRange(LossTreeError):
    """A generator parameter is outside its legal range."""


class OutOfDomain(LossTreeError):
    """A value lies outside the domain of the addloss transform."""


class Infeasible(LossTreeError):
    """The requested internal assignment leaves no non-negative leaf solution."""


class NotInternal(LossTreeError):
    """The node is not an internal node."""


class InfeasibleStart(LossTreeError):
    """The supplied starting solution does not satisfy the observations."""


class XOutOfRange(LossTreeError):
    """The local family parameter lies outside its feasible range."""


class InstanceTooLarge(LossTreeError):
    """The instance exceeds the brute-force size limit."""


class KTooSmall(LossTreeError):
    """Requested sparsity is below the minimum the construction supports."""


class NotBranchNode(LossTreeError):
    """The node has fewer than two children."""


class ConfigInvalid(LossTreeError):
    """An experiment configuration fails validation."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_tol(tol) -> None:
    """Raise ParameterOutOfRange unless the tolerance ``tol`` is a finite number of at least 0."""
    if not (_is_real(tol) and 0 <= tol < math.inf):
        raise ParameterOutOfRange(f"tol must be a finite number of at least 0, got {tol!r}")


def _check_seed(seed, streams: bool = True) -> None:
    """Raise ParameterOutOfRange unless ``seed`` is a whole number of at least 0.

    With ``streams``, a numpy ``SeedSequence`` or ``Generator`` passes too, as
    ``np.random.default_rng`` takes them; a seed that substreams are spawned
    from must be a number.
    """
    stream = isinstance(seed, (np.random.SeedSequence, np.random.Generator))
    if not ((_is_int(seed) and seed >= 0) or (streams and stream)):
        raise ParameterOutOfRange(f"seed must be a whole number of at least 0, got {seed!r}")


def _per_row(value, rows, what: str, of: str):
    """``[value]`` if ``rows`` is None, else ``value`` as a list, tuple or array of ``rows`` entries."""
    if rows is None:
        return [value]
    if isinstance(value, (list, tuple, np.ndarray)) and len(value) == rows:
        return value
    raise ParameterOutOfRange(f"need one {what} for each of the {rows} rows of {of}")
