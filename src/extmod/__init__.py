"""Exact computation with graded modules over two-generator exterior algebras."""

from .linalg import (Field, Matrix, SubspaceBasis, image, intersect, kernel,
                     preimage_space, quotient_dim, sum_space)
from .modules import (AlgebraParams, FlashShape, Module, default_params,
                      direct_sum, make_flash, make_free, random_basis_change,
                      shift, truncate_above, truncated_infinite_flash, validate,
                      with_variant, zero_module)
from .operators import (FiltrationTrace, filtration, filtration_trace,
                        margolis_homology, socle)
from .decompose import (Decomposition, FreeSplit, Summand, decompose,
                        idempotent_oracle, multiplicities, split_free,
                        verify_decomposition, verify_split_free)
from .suite import (ExclusionProbe, SuiteParams, SuiteReport, exclusion_probe,
                    flash_multiplicity_at_degree, run_checks)
from .textio import DocumentError, parse_module, print_module, to_dot

__version__ = "0.1.0"
