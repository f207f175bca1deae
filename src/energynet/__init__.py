"""Discrete potential theory on resistance networks: energy kernels,
effective resistance, Gram matrices, multiplication-operator analysis, and
conductance-weighted random walks."""

from .checks import (
    bisect_bound,
    hermitian_defect,
    lap_pairing_check,
    normalized_projections,
    rank_one_identities,
    reproducing_check,
    truncation_consistency,
)
from .energy import (
    EnergyVector,
    GramMatrix,
    banach_norm,
    delta,
    delta_gram,
    effective_resistance,
    energy_form,
    energy_kernel,
    fin_projection,
    gram_matrix,
    ground,
    zero_vector,
    pointwise_product,
    sup_norm,
)
from .multop import (
    Multiplier,
    MultiplierReport,
    adjoint_on_kernel,
    analyze,
    apply,
    certify_bound,
    point_mass_norm,
    restricted_norm,
    s_matrix,
    sufficiency_bound,
)
from .network import (
    Network,
    VertexFunction,
    build_network,
    generate,
    laplacian_apply,
    load_network,
    save_network,
    total_conductance,
)
from .numkernel import PsdVerdict
from .randwalk import WalkEstimate, escape_prob_exact, escape_prob_mc, transition_prob

__version__ = "0.1.0"
