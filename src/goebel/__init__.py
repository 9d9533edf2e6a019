"""Integrality breakdown of generalized Goebel sequences.

Exact breakdown points via a shrinking-modulus recurrence, residue-class
sieving over k, the quadratic-residue reduced walks with their
(l_L, l_R, J_p) decomposition, and the arithmetic-billiards sign sequences
used to verify that the middle block is never empty.

The package root exports what the acceptance suite and the README use;
everything else is imported from its submodule.  Each exported name loads
its submodule on first use (PEP 562), so `import goebel` loads none of
them, and a command that never touches an array never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "billiards": (
            "billiard_path",
            "construct_a",
            "empty_iff_conditions",
            "verify_nonmultiplicativity",
            "verify_range",
        ),
        "errors": ("DomainError", "GoebelError"),
        "exact": ("DEFAULT_N_LIMIT", "exact_N", "exact_N_range"),
        "modarith": ("primes_in_range",),
        "reduced": ("Classification", "classify_l", "compute_jp", "jp_summaries", "scan_two_in_jp"),
        "sieve": (
            "bad_residues",
            "grid_scan",
            "prime_trace_mod_p",
            "sieve_range",
            "sieve_tables",
            "smallest_sieving_prime",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
