"""Numerical verification lab for equivariant Dirac operators on SU_q(2).

Truncated Peter-Weyl spaces carry two realizations of the quantum-group
generators: a hatted pair on the scalar space (an asymptotic model whose
relation defects decay level by level) and the spinorial representation on
the doubled space (exact at machine precision).  An explicit permutation
unitary conjugates the diagonal Dirac pair into the isospectral operator
exactly, and the package measures the decay rate, asymptotics, commutator
plateaus and cyclicity that certify the construction at desk scale.
"""

__version__ = "0.1.0"

from .covariant import CyclicityReport, cyclic_dimension
from .decomp import (AsymptoticScan, DecayFit, KqDecay, asymptotic_residual,
                     asymptotic_scan, build_U, check_dirac_intertwine,
                     control_decay, decay_fit, kq_decay, kq_defect,
                     leading_form)
from .harness import RunConfig, VerificationReport, run
from .hilbert import TruncatedSpace, enumerate_space, interior
from .linop import (SparseOp, SpaceMismatchError, block_norm,
                    interior_projector, on_columns, op_norm)
from .qnum import q_number, validate_q
from .rep_double import (a_minus, a_plus, b_minus, b_plus, dirac_D, pi_prime,
                         pi_prime_generators)
from .rep_l2 import (D1_PARAMS, D2_PARAMS, DiracParams, alpha_hat, beta_hat,
                     dirac_family, hat_generators, pi_hat, relation_words)

# Labels and n_max are twice-valued ints; perfbench still builds them with
# ``HalfInt(twice)``, which under that convention is the int itself.
HalfInt = int
