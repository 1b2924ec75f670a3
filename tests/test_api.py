"""The public names of the ``ychannel`` package.

Removing or renaming a public name breaks callers, so it must be a
deliberate edit of this list, with the reason given in the README.
"""

import inspect

import ychannel

PUBLIC_NAMES = [
    "AlignmentInfeasibleError",
    "AlignmentReport",
    "AlignmentScheme",
    "AlignmentVerificationError",
    "BcScheme",
    "BroadcastInfeasibleError",
    "ChannelSet",
    "ConfigurationError",
    "CornerPoint",
    "DecodabilityError",
    "DegenerateChannelError",
    "DegenerateSplitError",
    "DimensionError",
    "ExtensionPlan",
    "GapReport",
    "InfeasibleConfigurationError",
    "NeedsExtensionError",
    "NetworkCodedVector",
    "PairCheck",
    "PreparedPipeline",
    "Regime",
    "RegimeLabel",
    "SimResult",
    "StageError",
    "StreamAllocation",
    "SymbolFrame",
    "SystemConfig",
    "YChannelError",
    "achievable_dof",
    "allocate_streams",
    "apply_extension_plan",
    "assemble_scheme",
    "bc_phase",
    "build_bc_scheme",
    "cancel_self_interference",
    "corner_points",
    "decode_user",
    "end_to_end",
    "estimate_dof_slope",
    "fit_slope",
    "gap_report",
    "load_scheme",
    "mac_phase",
    "make_frame",
    "pairwise_rates",
    "plan_extension",
    "prepare",
    "regime_of",
    "relay_decode",
    "sample_channels",
    "save_scheme",
    "scheme_from_dict",
    "scheme_to_dict",
    "simulate",
    "simulate_grid",
    "stack_network_coded",
    "sum_rate_curve",
    "upper_bound",
    "verify_alignment_conditions",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(ychannel).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_NAMES
