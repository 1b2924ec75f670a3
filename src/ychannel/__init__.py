"""DoF bounds and alignment relaying for K-user MIMO Y networks.

The package has four layers:

* :mod:`ychannel.bounds`: exact rational DoF upper bound and achievable
  envelope, regime identification and gap reports.
* :mod:`ychannel.channel`: reproducible channel sampling and extension
  plans; ``apply_extension_plan`` realizes a plan's symbol extension and
  antenna deactivation in one step.
* :mod:`ychannel.alignment`: constructive synthesis and verification of
  the compressed signal-alignment relaying scheme.
* :mod:`ychannel.simulation`: end-to-end two-phase simulation and DoF
  slope estimation.

The ``ychannel`` console script fronts all of it.
"""

from .alignment import (
    AlignmentReport,
    AlignmentScheme,
    PairCheck,
    StreamAllocation,
    allocate_streams,
    assemble_scheme,
    load_scheme,
    save_scheme,
    scheme_from_dict,
    scheme_to_dict,
    verify_alignment_conditions,
)
from .bounds import (
    CornerPoint,
    GapReport,
    Regime,
    RegimeLabel,
    achievable_dof,
    corner_points,
    gap_report,
    regime_of,
    upper_bound,
)
from .channel import (
    ChannelSet,
    ExtensionPlan,
    apply_extension_plan,
    plan_extension,
    sample_channels,
)
from .config import SystemConfig
from .errors import (
    AlignmentInfeasibleError,
    AlignmentVerificationError,
    BroadcastInfeasibleError,
    ConfigurationError,
    DecodabilityError,
    DegenerateChannelError,
    DegenerateSplitError,
    DimensionError,
    InfeasibleConfigurationError,
    NeedsExtensionError,
    StageError,
    YChannelError,
)
from .simulation import (
    BcScheme,
    NetworkCodedVector,
    PreparedPipeline,
    SimResult,
    SymbolFrame,
    bc_phase,
    build_bc_scheme,
    cancel_self_interference,
    decode_user,
    end_to_end,
    estimate_dof_slope,
    fit_slope,
    mac_phase,
    make_frame,
    pairwise_rates,
    prepare,
    relay_decode,
    simulate,
    simulate_grid,
    stack_network_coded,
    sum_rate_curve,
)

__version__ = "0.1.0"
