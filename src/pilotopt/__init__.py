"""Joint pilot allocation and sequence design for MIMO-OFDM sparse channel estimation.

The package minimizes a generalized coherence metric of the compressed-
sensing sensing matrix over non-orthogonal pilot sequences, drives whole
subcarriers to zero through a block-sparse penalty to obtain the pilot
allocation, and evaluates designs with a seeded Monte-Carlo OMP channel
estimation harness.
"""

from .channel import *
from .coherence import *
from .dictionary import *
from .errors import *
from .estimator import *
from .harness import *
from .optimizer import *

__version__ = "0.1.0"
