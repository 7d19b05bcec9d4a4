"""Exact bicrossed-product Hopf algebras k^G # kF from matched pairs.

Construction, axiom verification, classification of simple comodules by
induced characters, fusion rings, duals, Frobenius-Schur indicators, and
compact-quantum-group certification, all in exact cyclotomic arithmetic.
"""

from .cyclotomic import CycNum, one, rational, root_of_unity, zero
from .errors import (
    BicrossedError,
    ConfigError,
    InternalInconsistencyError,
    VerificationFailure,
)
from .groups import (
    FiniteF,
    FiniteGroup,
    FreeAbelianF,
    abelian_invariants,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    f_ball,
    finite_group,
    permutation_group,
)
from .matched_pair import (
    LinearAction,
    MatchedPairCtx,
    Orbit,
    TableActions,
    verify_matched_pair,
)
from .cocycles import (
    Beta2Cocycle,
    SigmaCocycle,
    TauCocycle,
    beta_for_orbit,
    is_unitary,
    verify_cocycles,
)
from .hopf import BicrossedHopf, HElem, HTensor, verify_hopf, verify_star
from .reps import (
    CharTable,
    TwistedChar,
    abelian_char_table,
    central_extension,
    ordinary_char_table,
    twisted_char_table,
    user_char_table,
)
from .comodules import (
    SimpleDesc,
    SimpleIndex,
    coefficient_basis,
    irreducible_character,
)
from .fusion import FusionRing, FusionRow, FusionTable
from .certs import dimension_audit, direct_sum_check, exact_rank, solve_in_span
from .config import Build, build_config, load_config_file, parse_scalar
from .presets import resolve_preset

__version__ = "0.1.0"
