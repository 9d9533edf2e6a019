"""Integrality breakdown of generalized Goebel sequences.

Exact breakdown points via a shrinking-modulus recurrence, residue-class
sieving over k, the quadratic-residue reduced walks with their
(l_L, l_R, J_p) decomposition, and the arithmetic-billiards sign sequences
used to verify that the middle block is never empty.

The package root exports what the acceptance suite and the README use;
everything else is imported from its submodule.
"""

from .billiards import (
    billiard_path,
    construct_a,
    construct_b,
    empty_iff_conditions,
    verify_nonmultiplicativity,
    verify_range,
)
from .errors import DomainError, GoebelError
from .exact import DEFAULT_N_LIMIT, exact_N, exact_N_range
from .modarith import primes_in_range
from .reduced import Classification, classify_l, compute_jp, jp_summaries, scan_two_in_jp
from .sieve import (
    bad_residues,
    grid_scan,
    prime_trace_mod_p,
    sieve_range,
    sieve_tables,
    smallest_sieving_prime,
)

__version__ = "0.1.0"
