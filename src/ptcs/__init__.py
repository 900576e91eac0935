"""Coherent states for the trigonometric Poschl-Teller well.

Three families on one truncated eigenbasis (displacement orbit,
lowering-eigenstate, minimum-uncertainty), their position-space
wavefunctions, and a verification layer of independent oracles for every
closed form involved.  Each library module's ``__all__`` declares its
public names, re-exported here; ``ptcs.cli`` is not imported.
"""

from .operators import *
from .position import *
from .report import *
from .specfun import *
from .states import *
from .verify import *

__version__ = "0.1.0"
