"""Two-photon Deutsch-Jozsa protocol on a dispersively coupled atomic ensemble.

The package is organized bottom-up: ``qstate`` holds the labeled-space
linear algebra, ``polarization`` the Jones-calculus optics, ``ensemble`` the
medium dynamics (exact and declared), ``manybody`` the unreduced and
symmetric-sector oracle simulators, ``protocol`` the end-to-end algorithm,
``params`` the feasibility calculator, and ``cli`` the command-line front
end.
"""

__version__ = "0.1.0"

from .ensemble import (
    EnsembleConfig,
    MicrowavePulse,
    PaperPolarizerMap,
    build_h_eff,
    build_h_eff_linear,
    check_phases_claim,
    microwave_rotation,
    u_eff_exact,
    u_eff_paper,
)
from .manybody import (
    AtomRotation,
    EnsembleEvolution,
    PhotonRotation,
    full_simulate_dicke,
    full_simulate_naive,
)
from .params import FeasibilityReport, MediumSpec, required_detuning, transit_time
from .polarization import (
    PhotonBasis,
    WavePlateSpec,
    basis_convert,
    composite_h,
    detect_coincidence,
    gadget_compose,
    hadamard_variant,
    half_wave,
    quarter_wave,
    source_and_initialize,
)
from .protocol import (
    BooleanFunction,
    Outcome,
    ProtocolTrace,
    build_oracle,
    classify,
    enumerate_functions,
    h_eq_for,
    reference_dj_circuit,
    run_protocol,
    table1_functions,
)
from .qstate import (
    Operator,
    SpaceLabel,
    StateVector,
    basis_state,
    born_distribution,
    embed,
    equal_up_to_global_phase,
    expm_hermitian,
    sample_shots,
    tensor,
)

__all__ = [
    "__version__",
    "AtomRotation",
    "BooleanFunction",
    "EnsembleConfig",
    "EnsembleEvolution",
    "FeasibilityReport",
    "MediumSpec",
    "MicrowavePulse",
    "Operator",
    "Outcome",
    "PaperPolarizerMap",
    "PhotonBasis",
    "PhotonRotation",
    "ProtocolTrace",
    "SpaceLabel",
    "StateVector",
    "WavePlateSpec",
    "basis_convert",
    "basis_state",
    "born_distribution",
    "build_h_eff",
    "build_h_eff_linear",
    "build_oracle",
    "check_phases_claim",
    "classify",
    "composite_h",
    "detect_coincidence",
    "embed",
    "enumerate_functions",
    "equal_up_to_global_phase",
    "expm_hermitian",
    "full_simulate_dicke",
    "full_simulate_naive",
    "gadget_compose",
    "h_eq_for",
    "hadamard_variant",
    "half_wave",
    "microwave_rotation",
    "quarter_wave",
    "reference_dj_circuit",
    "required_detuning",
    "run_protocol",
    "sample_shots",
    "source_and_initialize",
    "table1_functions",
    "tensor",
    "transit_time",
    "u_eff_exact",
    "u_eff_paper",
]
