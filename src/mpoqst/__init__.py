"""Tomography of matrix-product-operator states from IC-POVM measurements."""

__version__ = "0.1.0"

from .tt import (  # noqa: F401
    DenseOperator,
    NumericalError,
    TTTensor,
    is_hermitian,
    load_tt,
    save_tt,
    smallest_tt_singular_value,
    tt_add,
    tt_adjoint,
    tt_from_dense,
    tt_from_json_dict,
    tt_inner,
    tt_norm,
    tt_round,
    tt_scale,
    tt_to_dense,
    tt_to_json_dict,
    tt_trace,
)
from .povm import (  # noqa: F401
    DensePOVM,
    DesignReport,
    GammaReport,
    LocalPOVM,
    NonPhysicalStateError,
    ProductPOVM,
    check_povm,
    check_sic,
    check_t_design,
    dual_basis_sic,
    gamma,
    marginal_prefix_prob,
    measure_map_dense,
    prob_of_outcome,
    sic_qubit,
    sum_channel,
    sym_projector,
    wh_sic_from_fiducial,
)
from .sampling import (  # noqa: F401
    OutcomeRecord,
    PopulationRecord,
    population_record,
    sample_enumerate,
    sample_sequential,
)
from .states import (  # noqa: F401
    MPDOGenConfig,
    ghz_density,
    maximally_mixed,
    pure_product,
    purity,
    random_mpdo,
)
from .estimator import (  # noqa: F401
    Estimate,
    EstimatorConfig,
    STEP_PRESETS,
    admissible_init_radius,
    admissible_step_interval,
    empirical_operator,
    loss,
    pgd,
    project_mpo,
    psd_project,
    psgd,
    random_init,
    recovery_error,
    spectral_init,
)
from .experiment import ExperimentSpec, run_experiment  # noqa: F401
