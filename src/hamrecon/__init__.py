"""Eigenfunction reconstruction on the q-ary n-dimensional Hamming graph.

A function on the vertices of the q-ary hypercube whose neighbor sums
satisfy sum_{rho(a,b)=1} f(b) = lambda f(a) is determined, under exact
nondegeneracy conditions, by its values on a single sphere around the
origin: the radius-d sphere determines the radius-d ball, and the sphere
whose radius equals the eigenvalue index determines the whole function.
This package implements both reconstructions together with the exact
integer machinery needed to decide the conditions.  The tuple-level
brute-force references that check the solvers at desk scale, the dense
layer operator and the certified singularity test live with the tests,
in ``tests/oracles.py`` and ``tests/rankcheck.py``.
"""

from .coeffs import (
    ConditionReport,
    RegimeError,
    check_conditions,
    coefficient,
    coefficient_table,
    eigen_sums,
)
from .krawtchouk import (
    generating_coefficients,
    krawtchouk_table,
    krawtchouk_value,
)
from .localdist import (
    LocalDistribution,
    local_distribution,
    sigma_delta_split,
    substituted_coefficients,
    transfer_orthogonal,
    verify_face_relation,
)
from .recon import (
    ConditionError,
    LayerSystem,
    SphereData,
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
    complement,
    max_states,
    parse_word,
    rank_word,
    support,
    weight,
    word_rank,
    word_text,
)
from .spectral import (
    VertexFunction,
    apply_distance_operator,
    character,
    eigen_residual,
    fourier_transform,
    function_from_dict,
    inverse_fourier,
    project_eigenspace,
    random_eigenfunction,
    vertex_json_chunks,
)

__version__ = "0.1.0"
