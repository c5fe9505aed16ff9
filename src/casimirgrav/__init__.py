"""Casimir observables for parallel plates and their weak-field gravity
corrections, with three independent regularization routes. The public API is
``__all__``, the union of the ``__all__`` of the five modules below."""

from .cavity import *
from .errors import *
from .numerics import *
from .regularization import *
from .weakfield import *

__all__ = (cavity.__all__ + errors.__all__ + numerics.__all__ + regularization.__all__
           + weakfield.__all__)

__version__ = "0.1.0"
