"""Numerical toolkit for anisotropic endpoint Littlewood-Paley analysis:
expansive dilations, quasi-norms, filter banks, Peetre maximal functions,
p = infinity smoothness norms, wavelet analysis on the scaling group, and
desk-scale frame decomposition experiments."""

from .errors import (
    Aliasing,
    AnisoError,
    CoverageGap,
    Diverged,
    DivisionUnderflow,
    IllConditioned,
    NotExpansive,
    NotExponential,
    Singular,
    VerificationFailed,
    WindowOutOfDomain,
)
from .grids import GridSpec
from .linalg_expansive import (
    ExpansiveMatrix,
    QuasiNormStructure,
    ScaleGauge,
    WeightNu,
    build_ellipsoid,
    fractional_power,
    matrix_from_json,
    real_matrix_log,
    transpose_gauge,
    validate_expansive,
)
from .analyzers import (
    AdmissibleVector,
    AnalyzingPair,
    SpectralProfile,
    admissibility_integral,
    make_admissible,
    make_analyzing_pair,
    make_covering_profile,
)
from .field_engine import (
    SampledField,
    ScaleBand,
    convolve_scale,
    dilate_field,
    field_from_closure,
    field_from_spec,
    reconstruct,
)
from .norms import (
    MaximalField,
    NormParams,
    NormReport,
    band_arrays,
    besov_norm,
    check_submeanvalue,
    embedding_check,
    hl_maximal,
    peetre_arrays,
    tl_norm_inf,
    tl_norm_q,
    tl_peetre_norm,
)
from .group_analysis import (
    ControlWeight,
    EnvelopeSpec,
    GroupField,
    GroupGrid,
    GroupPoint,
    envelope_compare,
    group_inv,
    group_mul,
    group_point,
    local_maximal,
    modular,
    pti_arrays,
    pti_norm,
    quasi_regular,
    reproducing_check,
    translation_bound_check,
    wavelet_transform,
    weight_v,
    wiener_amalgam_norm,
)
from .frames import (
    FrameSystem,
    IndexSet,
    MolecularSystem,
    atom_field,
    dual_reconstruct,
    frame_bounds,
    member_coefficients,
    molecule_check,
    moment_problem,
    sample_index_set,
    sequence_norm,
    synthesis,
)
from .suite import SuiteSpec, suite_generate

__all__ = [name for name in dir() if not name.startswith("_")]
