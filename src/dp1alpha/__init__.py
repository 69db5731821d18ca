"""Exact-arithmetic alpha-invariants of polarized degree-one del Pezzo surfaces.

Submodules:

- picard: the rank-9 lattice, curve-class enumerations, Bertini involution
- linprog: exact rational simplex with Farkas certificates
- cone: ampleness, pseudo-effectivity, the mu threshold and type classification
- alpha: closed-form alpha bounds, parameter ranges, counterexample report
- weierstrass: binary sextic/quartic models w^2 = z^3 + a z + b and sections
- fme / lemmas: Fourier-Motzkin prover and the certified inequality bank
- rationals: the p/q grammar, common denominators, exact square roots
- cli: JSON command-line front end

The public names below are resolved on first access (PEP 562), so importing
the package imports no submodule; ``dp1alpha.classify`` imports ``cone``.
"""

from importlib import import_module

_EXPORTS = {
    "alpha": (
        "CounterexampleReport",
        "alpha_conjecture",
        "alpha_del_pezzo",
        "alpha_theorem",
        "counterexample_report",
        "cylinder_range_contains",
        "example_polarization",
        "kstable_range_contains",
        "upper_bound_witnesses",
    ),
    "cone": (
        "PolarizationProfile",
        "UnclassifiableError",
        "classify",
        "is_ample",
        "is_pseudoeffective",
        "membership_certificate",
        "mu_threshold",
    ),
    "lemmas": (
        "LEMMA_IDS",
        "LemmaProbeError",
        "lc_two_smooth_branches",
        "lct_plane_singularity",
        "relaxation_probe",
        "substitution_checks",
        "verify_lemma",
    ),
    "picard": (
        "CurveClassSet",
        "PicardClass",
        "bertini",
        "canonical_class",
        "enumerate_conic_classes",
        "enumerate_minus_one_classes",
        "exceptional_class",
        "format_class",
        "hyperplane_class",
        "pairing",
        "parse_class",
    ),
    "weierstrass": (
        "BinaryForm",
        "NotASectionError",
        "SectionPair",
        "WeierstrassSurface",
        "alpha_of_surface",
        "find_square_sections",
        "format_form",
        "has_cuspidal_member",
        "is_smooth",
        "parse_form",
        "section_pair",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(
    {"alpha", "cli", "cone", "fme", "lemmas", "linprog", "picard", "rationals", "weierstrass"}
)

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
