"""Multiresolution analysis and wavelet bases for incomplete rankings."""

from .words import (
    Chain,
    Word,
    concat,
    content,
    delete,
    delete_set,
    diamond,
    epsilon,
    format_chain,
    insert_at,
    parse_chain,
    restrict,
    translate,
)
from .perms import (
    CycleForm,
    Permutation,
    YoungTableau,
    derangement_number,
    derangements,
    eig,
    enumerate_syt,
    hook_dim,
    standard_cycle_form,
)
from .marginals import (
    MarginalFamily,
    ObservationDesign,
    ProjectivityReport,
    check_projective,
    contiguous_extensions,
    empirical_marginals,
    exact_marginals,
    extensions,
    marginal,
    uniform_distribution,
)
# mra before wavelets, which loads numpy: without cached bytecode, mra then
# compiles before numpy is loaded, and the process peaks about 1 MB lower
from .mra import (
    CoefficientVector,
    DimensionReport,
    ProjectivityError,
    SolverError,
    WaveletBasis,
    build_basis,
    decompose,
    decompose_marginals,
    dezoom,
    marginal_residual,
    synthesize,
    verify_dimensions,
)
from .wavelets import (
    chain_coefficient_fast,
    embed,
    embed_into,
    marginal_wavelet,
    naive_embed,
    wavelet,
    wavelet_chain,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
