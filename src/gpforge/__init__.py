"""gpforge: a computational group-presentation toolkit.

Free-group words and finite presentations; the construction combinators
(free/direct/amalgamated products, HNN extensions, standard mitosis and
its iterated ascending-HNN hull, Meier's self-square amalgam, word-problem
witness families); Britton rewriting for cyclic-edge HNN extensions;
exact integer homology via Smith normal form; triangulation of
presentation complexes by double barycentric subdivision; and a
forward-chaining inference engine deriving bounded-cohomology facts with
replayable, citation-bearing certificates.
"""

from .words import (
    Alphabet,
    GeneratorSymbol,
    Word,
    commutator,
    cyclically_reduce,
    format_word,
    parse_word,
    substitute,
    word,
)
from .presentations import (
    EMPTY_PRESENTATION,
    Presentation,
    PresentationMorphism,
    parse,
    presentation,
    serialize,
    tietze_simplify,
    validate,
)
from .combinators import (
    GroupExpr,
    amalgamated_product,
    atom,
    bac_hnn,
    direct_product,
    free_product,
    hnn_extension,
    mu_stage,
    standard_mitosis,
)
from .rewriting import (
    HnnRewriteSystem,
    Homomorphism,
    TrivialityCertificate,
    britton_normal_form,
    bs_canonical,
    bs_equal,
    bs_reduce,
    bs_system,
    finite_quotient_search,
    free_triviality,
)
from .homology import (
    AbelianGroup,
    ChainComplexData,
    IntegerMatrix,
    SnfResult,
    SparseMatrix,
    abelianization,
    invariant_factors,
    smith_normal_form,
)
from .topology import (
    DeltaComplex,
    SimplicialComplex,
    barycentric_subdivide,
    edge_path_presentation,
    presentation_complex,
    serialize_simplicial,
    simplicial_homology,
    triangulate,
)
from .meier import (
    MeierData,
    MeierElement,
    build_meier,
    double_coset_probe,
    meier_eval,
    meier_element,
    meier_gamma_expr,
    meier_t_expr,
    phi_apply,
)
from .reductions import (
    WitnessOutput,
    WordProblemSource,
    delta_w,
    f2_atom,
    free_source,
    gamma_w,
    hyperbolic_manifold_atom,
    lambda_w,
    pi_w,
    witness_w,
)
from .inference import (
    Certificate,
    Derivation,
    Fact,
    check_consistency,
    derive,
    query,
    replay_certificate,
)
from .sexpr import parse_expr, serialize_expr

__version__ = "0.1.0"
