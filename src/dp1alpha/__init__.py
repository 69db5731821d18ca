"""Exact-arithmetic alpha-invariants of polarized degree-one del Pezzo surfaces.

Submodules:

- picard: the rank-9 lattice, curve-class enumerations, Bertini involution
- linprog: exact rational simplex with Farkas certificates
- cone: ampleness, pseudo-effectivity, the mu threshold and type classification
- alpha: closed-form alpha bounds, parameter ranges, counterexample report
- weierstrass: binary sextic/quartic models w^2 = z^3 + a z + b and sections
- fme / lemmas: Fourier-Motzkin prover and the certified inequality bank
- cli: JSON command-line front end
"""

from .alpha import (
    CounterexampleReport,
    QuadraticBound,
    alpha_conjecture,
    alpha_del_pezzo,
    alpha_theorem,
    counterexample_report,
    cylinder_range_contains,
    example_polarization,
    kstable_range_contains,
    upper_bound_witnesses,
)
from .cone import (
    PolarizationProfile,
    UnclassifiableError,
    classify,
    is_ample,
    is_pseudoeffective,
    membership_certificate,
    mu_threshold,
)
from .lemmas import (
    LEMMA_IDS,
    LemmaProbeError,
    lc_two_smooth_branches,
    lct_plane_singularity,
    relaxation_probe,
    substitution_checks,
    verify_lemma,
)
from .picard import (
    CurveClassSet,
    PicardClass,
    bertini,
    canonical_class,
    enumerate_conic_classes,
    enumerate_minus_one_classes,
    exceptional_class,
    format_class,
    hyperplane_class,
    pairing,
    parse_class,
)
from .weierstrass import (
    BinaryForm,
    NotASectionError,
    SectionPair,
    WeierstrassSurface,
    alpha_of_surface,
    find_square_sections,
    format_form,
    has_cuspidal_member,
    is_smooth,
    parse_form,
    section_pair,
)

__all__ = [
    "BinaryForm",
    "CounterexampleReport",
    "CurveClassSet",
    "LEMMA_IDS",
    "LemmaProbeError",
    "NotASectionError",
    "PicardClass",
    "PolarizationProfile",
    "QuadraticBound",
    "SectionPair",
    "UnclassifiableError",
    "WeierstrassSurface",
    "alpha_conjecture",
    "alpha_del_pezzo",
    "alpha_of_surface",
    "alpha_theorem",
    "bertini",
    "canonical_class",
    "classify",
    "counterexample_report",
    "cylinder_range_contains",
    "enumerate_conic_classes",
    "enumerate_minus_one_classes",
    "example_polarization",
    "exceptional_class",
    "find_square_sections",
    "format_class",
    "format_form",
    "has_cuspidal_member",
    "hyperplane_class",
    "is_ample",
    "is_pseudoeffective",
    "is_smooth",
    "kstable_range_contains",
    "lc_two_smooth_branches",
    "lct_plane_singularity",
    "membership_certificate",
    "mu_threshold",
    "pairing",
    "parse_class",
    "parse_form",
    "relaxation_probe",
    "section_pair",
    "substitution_checks",
    "upper_bound_witnesses",
    "verify_lemma",
]
