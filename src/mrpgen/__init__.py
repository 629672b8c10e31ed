"""Seed-expanded uniform multi-residue polynomials for RNS accelerators.

The library turns a 288-bit seed into full multi-residue polynomials the
way a bank of distributed PRNG engines would: one domain-separated XOF
block per (modulus, segment) pair, rejection-sampled into exactly uniform
residues, identical bit-for-bit whether generated one engine unit at a time
(``generate_segment``), limb-by-limb at random access (``generate_limb``),
or whole (``generate_mrp``, serially or with one forked helper).  Around the
generator sit the supporting tools for choosing parameters: an NTT-friendly
prime catalog graded by signed-digit weight and rejection probability, an
exact failure-probability model, and a first-order wiring/power cost model.

The package loads lazily (PEP 562).  ``import mrpgen`` imports no
submodule; the first access to an exported name imports the submodule that
defines it, and ``mrpgen.<submodule>`` imports that submodule.  So the
parameter-design side (``primes``, ``analytics``, ``costmodel``) never
loads numpy, which only the generator (``xof``, ``keccak``, ``sampling``,
``formats``) needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analytics": ("chi_square_uniformity", "fit_limb_count", "mrp_failure_bound",
                  "seg_failure_prob", "solve_p_r_max"),
    "costmodel": ("CostParams", "CostReport", "build_cost_report", "central_wiring_power",
                  "distributed_wiring_power", "per_axis_bandwidth_density",
                  "required_throughput"),
    "errors": ("DomainFailure", "FormatError", "GenerationFailure", "MrpgenError",
               "ParamsError", "RetryExhausted", "UnknownName"),
    "formats": ("load_params", "read_mrp", "save_params", "verify_mrp_file", "write_mrp"),
    "primes": ("CatalogFilter", "ModuliCatalog", "PrimeRecord", "enumerate_supported",
               "histogram", "hw_naf", "is_ntt_friendly", "is_prime",
               "sample_rejection_prob", "size_bucket"),
    "sampling": ("GenParams", "Limb", "MultiResiduePolynomial", "Permutation",
                 "RetryResult", "Segment", "client_generate_with_retry", "compute_threshold",
                 "generate_limb", "generate_mrp", "generate_segment", "permute",
                 "seed_source_from_rng"),
    "xof": ("Seed", "derive_polynomial_seed", "encode_domain_input", "encode_domain_inputs",
            "split_words", "xof_expand", "xof_expand_many"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "keccak", "profiles"}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    from .errors import UnknownName
    raise UnknownName(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORIGIN.keys() | _SUBMODULES)
