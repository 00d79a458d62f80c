"""Exact-arithmetic tools for finite-dimensional multiplicative
BiHom-Lie algebras given by structure constants and two twist maps."""

from .fields import QQ, GF, FieldMismatchError, ReductionError
from .linalg import (Matrix, MatrixSubspace, SingularMatrixError,
                     VectorSubspace, char_poly, nullspace_basis, rank, rref)
from .algebra import (AxiomReport, BiHomLieAlgebra, CrossCheckError,
                      NotLieError, TwistError, derivation_extension,
                      direct_sum, heisenberg, induced_lie, structure_table,
                      yau_twist)
from .derivations import (MembershipError, central_derivations, centroid,
                          commutator, count_members_fp, derivation_grid,
                          derivation_space, jordan_product, normalize_params,
                          quasi_centroid, twist_commutant, twist_power,
                          verify_derivation)
from .structure import (ClosureError, SeriesReport, center, centralizer,
                        decompose, derived_series, derived_subalgebra,
                        is_characteristically_nilpotent, is_ideal,
                        is_nilpotent, is_small_centroid, is_solvable,
                        ker_alpha_plus_ker_beta, lower_central_series,
                        product_subspace)
from .catalog import (CatalogError, CatalogFamily, ExpectedRow,
                      InadmissibleParameterError, RowVerdict, build,
                      family_ids, get_family, iter_default_verifications,
                      pinned_samples, verify_entry, verify_family)
from .isomorphism import (Fingerprint, brute_force_iso, compare_fingerprints,
                          fingerprint, reduce_mod_p,
                          smallest_admissible_prime, transport,
                          verify_isomorphism)

__version__ = "0.1.0"
