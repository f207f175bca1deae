"""Discrete potential theory on resistance networks: energy kernels,
effective resistance, Gram matrices, multiplication-operator analysis, and
conductance-weighted random walks."""

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
    lap_pairing_check,
    pointwise_product,
    reproducing_check,
    sup_norm,
)
from .multop import (
    Multiplier,
    MultiplierReport,
    adjoint_on_kernel,
    analyze,
    apply,
    bisect_bound,
    certify_bound,
    hermitian_defect,
    normalized_projections,
    point_mass_norm,
    rank_one_identities,
    restricted_norm,
    s_matrix,
    sufficiency_bound,
    truncation_consistency,
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
from .numkernel import (
    PsdVerdict,
    SymMatrix,
    psd_check,
    spd_solve,
    sqrtm_psd,
    sym_eig,
)
from .randwalk import WalkEstimate, escape_prob_exact, escape_prob_mc, transition_prob

__version__ = "0.1.0"
