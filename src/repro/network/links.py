"""Link technologies: copper, pluggable optics, co-packaged optics.

The paper's enabling technology bet (Section 1): *"driven by recent advances
in co-packaged optics ... off-package communication bandwidth [will] improve
by 1-2 orders of magnitude with much better reach (10s of meters)"*, at much
better energy per bit than pluggable optics because the electrical signalling
distance shrinks to millimetres.

:class:`LinkSpec` captures the envelope numbers that matter to the models:
usable bandwidth per link/port, one-way latency, reach, energy per bit, and
cost per port.  Three representative technologies are registered; envelope
values follow the surveys the paper cites (Minkenberg et al., Tan et al.).
"""

from __future__ import annotations

from dataclasses import dataclass

from .._registry import Registry
from ..errors import SpecError
from ..units import GB_PER_S, NS, PJ


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point link technology.

    ``bandwidth`` bytes/s per port (one direction), ``latency`` seconds of
    one-way propagation + SerDes, ``reach_m`` maximum cable run, ``pj_per_bit``
    end-to-end link energy, ``cost_per_port_usd`` transceiver economics.
    """

    name: str
    bandwidth: float
    latency: float
    reach_m: float
    pj_per_bit: float
    cost_per_port_usd: float

    def __post_init__(self) -> None:
        if min(self.bandwidth, self.latency, self.reach_m) <= 0:
            raise SpecError(f"{self.name}: bandwidth, latency, reach must be positive")
        if self.pj_per_bit < 0 or self.cost_per_port_usd < 0:
            raise SpecError(f"{self.name}: energy and cost must be non-negative")

    def transfer_time(self, nbytes: float) -> float:
        """Time to move ``nbytes`` over the link (latency + serialization)."""
        if nbytes < 0:
            raise SpecError("nbytes must be non-negative")
        return self.latency + nbytes / self.bandwidth

    def energy(self, nbytes: float) -> float:
        """Joules to move ``nbytes``."""
        if nbytes < 0:
            raise SpecError("nbytes must be non-negative")
        return nbytes * 8.0 * self.pj_per_bit * PJ

    def watts_at_line_rate(self) -> float:
        """Power draw of one port running at full rate."""
        return self.bandwidth * 8.0 * self.pj_per_bit * PJ


LINK_TYPES: Registry[LinkSpec] = Registry("link type")


def _register(spec: LinkSpec) -> LinkSpec:
    return LINK_TYPES.register(spec.name, spec)


#: NVLink-class copper: very fast, very short (in-chassis only).
COPPER_NVLINK = _register(
    LinkSpec(
        name="copper-nvlink",
        bandwidth=450 * GB_PER_S,
        latency=300 * NS,
        reach_m=3.0,
        pj_per_bit=5.0,
        cost_per_port_usd=40.0,
    )
)

#: Pluggable optics (OSFP-class): rack-to-rack reach, power hungry.
PLUGGABLE_OPTICS = _register(
    LinkSpec(
        name="pluggable-optics",
        bandwidth=100 * GB_PER_S,
        latency=600 * NS,
        reach_m=100.0,
        pj_per_bit=15.0,
        cost_per_port_usd=550.0,
    )
)

#: Co-packaged optics: the paper's enabler — high bandwidth, tens of metres
#: of reach, and far better energy than pluggables because the electrical
#: path is millimetres.
CPO_OPTICS = _register(
    LinkSpec(
        name="cpo-optics",
        bandwidth=450 * GB_PER_S,
        latency=350 * NS,
        reach_m=50.0,
        pj_per_bit=4.0,
        cost_per_port_usd=220.0,
    )
)


def get_link(name: str) -> LinkSpec:
    """Look up a link technology by name.

    >>> get_link("cpo-optics").reach_m
    50.0
    """
    return LINK_TYPES.get(name)


def cpo_vs_pluggable_energy_gain() -> float:
    """Energy-per-bit advantage of co-packaged over pluggable optics."""
    return PLUGGABLE_OPTICS.pj_per_bit / CPO_OPTICS.pj_per_bit
