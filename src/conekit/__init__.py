"""conekit: engineer quantum channels with prescribed fixed points and
simulate the classical stochastic processes their iteration generates."""

from .channel import (
    ChoiMatrix,
    CptpReport,
    FixedPointSet,
    apply,
    choi_from_json,
    choi_to_json,
    fixed_points,
    identity_channel,
    is_cptp,
    iterate,
    random_cptp_choi,
    unitary_channel,
)
from .conesim import (
    DepolarizingKick,
    EmpiricalProcess,
    FixedKick,
    HaarUnitaryKick,
    Round,
    SimulationConfig,
    Trajectory,
    estimate_process,
    haar_unitary,
    run,
    to_quasi_realization,
)
from .engineer import (
    ConstructionError,
    DiscriminationReport,
    SdpChannelResult,
    SeparableMultiSpec,
    build_separable_multi,
    build_via_sdp,
    find_discrimination_projectors,
)
from .linops import (
    kernel_projector,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    support_projector,
    trace_distance,
)
from .quasireal import (
    DharmadhikariReport,
    PolyhedralCone,
    PositiveRealizationReport,
    QuasiRealization,
    cause_matrix,
    check_dharmadhikari,
    cone_membership,
    is_pointed,
    is_positive_realization,
    word_distribution,
    word_probability,
)
from .sdp import (
    NumericalLimitError,
    SdpProblem,
    SdpSolution,
    assemble_fixed_point_constraints,
    hermitian_basis,
    solve,
)

__version__ = "0.1.0"
