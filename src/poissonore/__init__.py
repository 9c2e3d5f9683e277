"""Poisson brackets on polynomial rings, Ore extensions, and their spectra.

Everything is computed in exact arithmetic over the Gaussian rationals
QQ(i); predicates return witnesses, searches return certificates.
"""

from .deriv import (
    Derivation,
    DerivationError,
    QuotientDerivation,
    derivation,
    exact_derivation,
    is_delta_ideal,
)
from .ore import (
    SkewPoly,
    commutator,
    quantize,
    semiclassical_bracket,
    specialize_classical,
    unquantize,
)
from .parser import ParseError, parse_poly
from .poisson import (
    DeltaBracket,
    FGDecomposition,
    NotPoissonError,
    PoissonTriple,
    TRIPLE_RING,
    commutator_ideal,
    curl,
    decompose_fg0,
    exact_triple,
    hamiltonian,
    is_poisson_ideal,
    is_poisson_triple,
    is_residually_null,
    jacobi_sum,
)
from .polycore import (
    Check,
    GaussRat,
    GREVLEX,
    I,
    IdealPres,
    LEX,
    ONE,
    Poly,
    SolutionFamily,
    ZERO,
    exact_divide,
    gcd_poly,
    groebner_basis,
    render,
)
from .registry import ExampleConfig, load_registry
from .spectra import (
    DarbouxCertificate,
    SpectrumDescription,
    SpectrumEntry,
    classify_delta_spectrum,
    classify_exact_spectrum,
    darboux_search,
    delta_core,
    factorizations,
    gamma_map,
    image_solvable,
    invariance_equations,
    irreducible_factors,
    is_irreducible,
    shamsuddin_simple,
    singular_locus,
    spectrum_inclusions,
    verify_cofactor,
)

__version__ = "0.1.0"
