"""Per-scheme frequency and power plans.

A TransmitPlan records, for every cell and content, whether the cell
transmits that content's subcarrier set and at what power.  Content 1 is the
global content and is transmitted by every cell under every scheme.  Local
contents 2..M are split between the two LSAs for the orthogonal scheme, and
reused in both LSAs (with buffer-zone adjustments) for the two
interference-managed schemes:

* power scaling: every buffer cell scales each local content to beta*S_m and
  boosts the global content by the freed power, so the cell still radiates
  its full power budget;
* buffer orthogonality: each buffer side transmits only its own LSA's half
  of the local contents (scaled by beta), the freed power again boosting the
  global content by default.

Each scheme gives a content one power per band of ``grid.ZONES``, so a plan
is one (4, M) table expanded to the cells with ``Grid.bands``.  Plans are
immutable after allocation and safe for concurrent read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from sfn_lsi_sim.errors import ConfigurationError
from sfn_lsi_sim.grid import Grid


class SchemeKind(Enum):
    OLSI = "olsi"
    IMLSI_PS = "ps"
    IMLSI_O = "imo"


def is_mod_order(mu: int) -> bool:
    """A modulation order is a power of two >= 2, so that log2(mu) bits per
    symbol is a whole number."""
    return mu >= 2 and not mu & (mu - 1)


@dataclass(frozen=True)
class ContentPlan:
    """Bandwidths, subcarrier counts, modulation and powers for M contents.

    Index 0 of every per-content sequence is content 1, the global content.
    ``base_power`` holds LSA1 transmit powers S_m in watts; ``base_power_prime``
    the LSA2 powers S_m' (defaults to the LSA1 values).  The per-cell power
    budget is P_t = sum of the base powers.
    """

    m_count: int
    bandwidth_hz: tuple[float, ...]
    subcarriers: tuple[int, ...]
    mod_order: tuple[int, ...]
    t_sym: float
    base_power: tuple[float, ...]
    base_power_prime: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.m_count < 2:
            raise ConfigurationError(f"m_count must satisfy M >= 2 (got {self.m_count})")
        if self.base_power_prime is None:
            object.__setattr__(self, "base_power_prime", tuple(self.base_power))
        for name in ("bandwidth_hz", "subcarriers", "mod_order", "base_power", "base_power_prime"):
            seq = getattr(self, name)
            if len(seq) != self.m_count:
                raise ConfigurationError(
                    f"{name} must have one entry per content (expected {self.m_count}, "
                    f"got {len(seq)})"
                )
            object.__setattr__(self, name, tuple(seq))
        if self.t_sym <= 0:
            raise ConfigurationError(f"t_sym must be positive (got {self.t_sym})")
        if any(b <= 0 for b in self.bandwidth_hz):
            raise ConfigurationError("bandwidth_hz entries must be positive")
        if any(s < 1 for s in self.subcarriers):
            raise ConfigurationError("subcarriers entries must be >= 1")
        if not all(map(is_mod_order, self.mod_order)):
            raise ConfigurationError(
                f"mod_order entries must be powers of two >= 2 (got {self.mod_order})",
                "mod_order",
            )
        if any(p < 0 for p in self.base_power) or any(p < 0 for p in self.base_power_prime):
            raise ConfigurationError("base powers must be non-negative")
        if self.base_power[0] != self.base_power_prime[0]:
            raise ConfigurationError(
                "global content power must be common to both LSAs "
                f"(got {self.base_power[0]} and {self.base_power_prime[0]})",
                "base_power_prime",
            )
        if self.total_power <= 0:
            raise ConfigurationError("total power P_t must be positive", "base_power")

    @property
    def total_power(self) -> float:
        """P_t for LSA1 cells."""
        return float(sum(self.base_power))

    @property
    def bits_per_symbol(self) -> tuple[int, ...]:
        """log2(mu) of each content's modulation order, exact."""
        return tuple(mu.bit_length() - 1 for mu in self.mod_order)

    @property
    def content_ids(self) -> range:
        return range(1, self.m_count + 1)

    def bandwidth_of(self, content_id: int) -> float:
        return self.bandwidth_hz[content_id - 1]


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection plus the buffer power ratio beta.

    beta is the ratio of a buffer cell's local-content power to its
    non-buffer value; the orthogonal scheme ignores it.  For the
    buffer-orthogonal scheme, ``buffer_reallocation`` selects whether power
    freed in buffer cells boosts the global content ("global") or is left
    unused ("none").
    """

    kind: SchemeKind
    beta: float = 1.0
    buffer_reallocation: str = "global"
    label: str = ""

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigurationError(f"beta must satisfy 0 <= beta <= 1 (got {self.beta})")
        if self.buffer_reallocation not in ("global", "none"):
            raise ConfigurationError(
                "buffer_reallocation must be 'global' or 'none' "
                f"(got {self.buffer_reallocation!r})"
            )
        if not self.label:
            object.__setattr__(self, "label", default_label(self.kind, self.beta))


def default_label(kind: SchemeKind, beta: float) -> str:
    if kind is SchemeKind.OLSI:
        return "olsi"
    return f"{kind.value}_beta{beta:g}"


@dataclass(frozen=True)
class TransmitPlan:
    """Realized transmit powers: entries[cell][content] = (power, active).

    ``power`` is an (n_cells, M) array in watts, column j holding content
    j+1; ``active`` marks which subcarrier sets each cell transmits.
    Inactive entries always carry zero power (an active entry may also be
    zero when beta = 0).  Arrays are read-only.
    """

    grid: Grid
    scheme: SchemeConfig
    power: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        self.power.flags.writeable = False
        self.active.flags.writeable = False


def lsa1_local_contents(m_count: int) -> range:
    """Local contents assigned to LSA1 under the orthogonal split: the
    ceiling half, contents 2 .. ceil((M+1)/2)."""
    return range(2, (m_count + 2) // 2 + 1)


def lsa2_local_contents(m_count: int) -> range:
    """Complementary floor half of the local contents, assigned to LSA2."""
    return range((m_count + 2) // 2 + 1, m_count + 1)


def _boosted_global(base_row: np.ndarray, beta: float, kept: np.ndarray) -> float:
    # S_1 plus the power freed by silencing (~kept) and scaling (kept) the
    # locals; written in freed-power form so beta=1 recovers S_1 bit-exactly.
    locals_ = base_row[1:]
    freed = np.where(kept, (1.0 - beta) * locals_, locals_)
    return float(base_row[0] + freed.sum())


def _zone_tables(plan: ContentPlan, scheme: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """(4, M) power and active tables of ``scheme``, one row per band of
    ``ZONES``; rows 1 and 2 are the left and right buffers.

    Orthogonal insertion transmits each band's own-LSA half of the locals
    at base power and leaves the other half's power unused.  The
    interference-managed schemes transmit every content at base power
    outside the buffers; in them, power scaling keeps every local and
    buffer orthogonality the band's own half, each kept local at beta*S_m.
    """
    base = np.array([plan.base_power] * 2 + [plan.base_power_prime] * 2)
    lsa1, lsa2 = ([m in half(plan.m_count) for m in plan.content_ids[1:]]
                  for half in (lsa1_local_contents, lsa2_local_contents))
    own = np.array([lsa1, lsa1, lsa2, lsa2])
    active = np.ones(base.shape, dtype=bool)
    if scheme.kind is SchemeKind.OLSI:
        active[:, 1:] = own
        return np.where(active, base, 0.0), active
    power = base.copy()
    kept = own[1:3] if scheme.kind is SchemeKind.IMLSI_O else np.ones_like(own[1:3])
    power[1:3, 1:] = np.where(kept, scheme.beta * base[1:3, 1:], 0.0)
    active[1:3, 1:] = kept
    if scheme.kind is SchemeKind.IMLSI_PS or scheme.buffer_reallocation == "global":
        for z in (1, 2):
            power[z, 0] = _boosted_global(base[z], scheme.beta, kept[z - 1])
    return power, active


def allocate(grid: Grid, plan: ContentPlan, scheme: SchemeConfig) -> TransmitPlan:
    """``scheme``'s zone tables expanded to every cell of ``grid``."""
    power, active = _zone_tables(plan, scheme)
    bands = grid.bands()
    return TransmitPlan(grid=grid, scheme=scheme, power=power[bands], active=active[bands])
