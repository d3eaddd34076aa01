"""Exact arithmetic for even symmetric forms, their linking forms, and the
mod-8 signature obstruction, with knot-theoretic and Diophantine front ends.
"""

from .forms import (DiagonalRationalForm, FormReport, IntegerSymmetricForm,
                    determinant, diagonalize, direct_sum, form_from_rows,
                    is_even, pivot_minors, report, signature,
                    signature_from_minors)
from .witt import (FiniteWittClass, PrimeFactorization, WittClassQ,
                   boundary_at_prime, boundary_is_zero,
                   boundary_zero_from_minors, factorize,
                   finite_witt_add, finite_witt_from_units, finite_witt_is_zero,
                   finite_witt_zero, is_prime, quadratic_residue,
                   rational_witt_class, relevant_primes, square_free_part,
                   witt_from_diagonal, witt_negate, witt_q_equal,
                   witt_q_is_zero, witt_sum)
from .discriminant import (DiscriminantForm, GaussSumValue, MainTheoremReport,
                           discriminant_form,
                           find_metabolizer, gauss_sum, gauss_sum_check,
                           gauss_sum_matches,
                           linking_is_nondegenerate,
                           linking_value, metabolizer_may_exist,
                           overlattice_from_metabolizer,
                           smith_normal_form, verify_main_theorem)
from .knots import (KnotReport, PretzelKnot, SeifertMatrix, analyze_knot,
                    knot_determinant, knot_signature, murasugi_check,
                    pretzel_determinant, pretzel_signature, pretzel_witt_class,
                    seifert_block_sum, seifert_from_rows, symmetrize)
from .diophantine import (SearchWindow, SolutionRecord, residue_prefilter,
                          search, symmetric_window,
                          verify_negative_restriction,
                          witness_both_positive_residues)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
