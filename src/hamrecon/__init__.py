"""Eigenfunction reconstruction on the q-ary n-dimensional Hamming graph.

A function on the vertices of the q-ary hypercube whose neighbor sums
satisfy sum_{rho(a,b)=1} f(b) = lambda f(a) is determined, under exact
nondegeneracy conditions, by its values on a single sphere around the
origin: the radius-d sphere determines the radius-d ball, and the sphere
whose radius equals the eigenvalue index determines the whole function.
This package implements both reconstructions together with the exact
integer machinery needed to decide the conditions, plus
brute-force oracles that validate every step at desk scale.
"""

from .coeffs import (
    CoefficientTable,
    ConditionReport,
    EigenSums,
    RegimeError,
    check_conditions,
    coefficient,
    coefficient_table,
    dense_layer_matrix,
    eigen_sums,
    regime_of,
)
from .krawtchouk import (
    KrawtchoukTable,
    SpectralIndex,
    eigenvalue_of_index,
    generating_coefficients,
    index_of_eigenvalue,
    krawtchouk_row,
    krawtchouk_value,
)
from .localdist import (
    LocalDistribution,
    enumerator_eval,
    local_distribution,
    sigma_delta_split,
    substituted_coefficients,
    transfer_orthogonal,
    verify_face_relation,
)
from .rankcheck import fraction_rank, is_singular, kernel_vector
from .recon import (
    BallData,
    ConditionError,
    DataInconsistencyError,
    LayerSystem,
    SphereData,
    apply_layer_operator,
    eta_direct_sum,
    eta_discrepancy,
    eta_face_values,
    layer_rhs,
    reconstruct_ball,
    reconstruct_full,
    reconstruct_origin,
    solve_layer,
)
from .scheme import (
    SchemeParams,
    Word,
    ball,
    complement,
    enumerate_region,
    face,
    full_support,
    hamming_distance,
    inner_product,
    max_states,
    parse_word,
    rank_word,
    sphere,
    support,
    weight,
    weight_support,
    word_rank,
    word_text,
)
from .spectral import (
    FourierContext,
    VertexFunction,
    apply_distance_operator,
    character,
    dumps_vertex_json,
    eigen_residual,
    fourier_transform,
    function_from_dict,
    function_to_dict,
    inverse_fourier,
    project_eigenspace,
    random_eigenfunction,
)

__version__ = "0.1.0"
