"""Random-profile samplers and the §4.3 equal-mean pair generators."""

from repro.sampling.equal_mean import (equal_mean_pair, equal_mean_pairs,
                                       mean_preserving_spread)
from repro.sampling.scenarios import (
    SCENARIOS,
    aging_lab,
    cloud_spot_mix,
    hero_and_herd,
    two_tier_datacenter,
    volunteer_swarm,
)
from repro.sampling.generators import (
    PROFILE_SAMPLERS,
    RHO_FLOOR,
    beta_profile,
    power_profile,
    two_point_profile,
    uniform_profile,
)

__all__ = [
    "RHO_FLOOR",
    "uniform_profile",
    "beta_profile",
    "power_profile",
    "two_point_profile",
    "PROFILE_SAMPLERS",
    "equal_mean_pair",
    "equal_mean_pairs",
    "mean_preserving_spread",
    "SCENARIOS",
    "aging_lab",
    "two_tier_datacenter",
    "volunteer_swarm",
    "cloud_spot_mix",
    "hero_and_herd",
]
