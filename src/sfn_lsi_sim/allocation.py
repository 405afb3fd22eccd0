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

Plans are immutable after allocation and safe for concurrent read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from sfn_lsi_sim.errors import ConfigurationError
from sfn_lsi_sim.grid import Grid, Lsa, Zone


class SchemeKind(Enum):
    OLSI = "olsi"
    IMLSI_PS = "ps"
    IMLSI_O = "imo"


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
        if any(mu < 2 for mu in self.mod_order):
            raise ConfigurationError("mod_order entries must be >= 2")
        if any(p < 0 for p in self.base_power) or any(p < 0 for p in self.base_power_prime):
            raise ConfigurationError("base powers must be non-negative")
        if self.base_power[0] != self.base_power_prime[0]:
            raise ConfigurationError(
                "global content power must be common to both LSAs "
                f"(got {self.base_power[0]} and {self.base_power_prime[0]})"
            )
        if self.total_power <= 0:
            raise ConfigurationError("total power P_t must be positive")

    @property
    def total_power(self) -> float:
        """P_t for LSA1 cells."""
        return float(sum(self.base_power))

    @property
    def total_power_prime(self) -> float:
        """P_t for LSA2 cells."""
        return float(sum(self.base_power_prime))

    @property
    def content_ids(self) -> range:
        return range(1, self.m_count + 1)

    def bandwidth_of(self, content_id: int) -> float:
        return self.bandwidth_hz[content_id - 1]

    @classmethod
    def equal_split(
        cls,
        m_count: int,
        total_power_w: float,
        total_bandwidth_hz: float,
        subcarriers_per_content: int = 1000,
        mod_order: int = 64,
        t_sym: float = 1e-3,
    ) -> "ContentPlan":
        """Convenience plan with equal powers, bandwidths and modulation."""
        return cls(
            m_count=m_count,
            bandwidth_hz=(total_bandwidth_hz / m_count,) * m_count,
            subcarriers=(subcarriers_per_content,) * m_count,
            mod_order=(mod_order,) * m_count,
            t_sym=t_sym,
            base_power=(total_power_w / m_count,) * m_count,
        )


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


def _base_powers(grid: Grid, plan: ContentPlan) -> np.ndarray:
    power = np.empty((len(grid.cells), plan.m_count))
    p1 = np.array(plan.base_power)
    p2 = np.array(plan.base_power_prime)
    for cell in grid.cells:
        power[cell.index] = p1 if cell.lsa is Lsa.LSA1 else p2
    return power


def _boosted_global(base_row: np.ndarray, beta: float, kept: np.ndarray) -> float:
    # S_1 plus the power freed by silencing (~kept) and scaling (kept) the
    # locals; written in freed-power form so beta=1 recovers S_1 bit-exactly.
    locals_ = base_row[1:]
    freed = np.where(kept, (1.0 - beta) * locals_, locals_)
    return float(base_row[0] + freed.sum())


def allocate_olsi(grid: Grid, plan: ContentPlan) -> TransmitPlan:
    """Orthogonal insertion: each LSA transmits only its own half of the
    local contents, everywhere within the LSA, at base powers.  The unused
    contents' power is not reallocated."""
    active = np.zeros((len(grid.cells), plan.m_count), dtype=bool)
    active[:, 0] = True
    own = {Lsa.LSA1: set(lsa1_local_contents(plan.m_count)),
           Lsa.LSA2: set(lsa2_local_contents(plan.m_count))}
    for cell in grid.cells:
        for m in own[cell.lsa]:
            active[cell.index, m - 1] = True
    power = np.where(active, _base_powers(grid, plan), 0.0)
    return TransmitPlan(grid=grid, scheme=SchemeConfig(SchemeKind.OLSI), power=power, active=active)


def allocate_ps(grid: Grid, plan: ContentPlan, beta: float) -> TransmitPlan:
    """Reuse-1 with power-scaled buffers: every cell transmits all contents;
    buffer cells carry each local content at beta*S_m and the global content
    boosted by the freed power so the cell sum stays at P_t."""
    scheme = SchemeConfig(SchemeKind.IMLSI_PS, beta=beta)
    active = np.ones((len(grid.cells), plan.m_count), dtype=bool)
    power = _base_powers(grid, plan)
    all_kept = np.ones(plan.m_count - 1, dtype=bool)
    for cell in grid.buffer_cells():
        base_row = power[cell.index].copy()
        power[cell.index, 1:] = beta * base_row[1:]
        power[cell.index, 0] = _boosted_global(base_row, beta, all_kept)
    return TransmitPlan(grid=grid, scheme=scheme, power=power, active=active)


def allocate_imo(
    grid: Grid,
    plan: ContentPlan,
    beta: float = 1.0,
    buffer_reallocation: str = "global",
) -> TransmitPlan:
    """Reuse-1 outside the buffer; inside it, each side transmits only its
    own LSA's orthogonal half of the local contents (scaled by beta).

    By default the power freed by the silenced and scaled local contents
    boosts the buffer global content to keep the cell at its full budget;
    with ``buffer_reallocation="none"`` the freed power is left unused.
    """
    scheme = SchemeConfig(SchemeKind.IMLSI_O, beta=beta, buffer_reallocation=buffer_reallocation)
    active = np.ones((len(grid.cells), plan.m_count), dtype=bool)
    power = _base_powers(grid, plan)
    own = {Zone.LEFT_BUFFER: lsa1_local_contents(plan.m_count),
           Zone.RIGHT_BUFFER: lsa2_local_contents(plan.m_count)}
    for cell in grid.buffer_cells():
        kept = np.array([m in own[cell.zone] for m in range(2, plan.m_count + 1)])
        base_row = power[cell.index].copy()
        power[cell.index, 1:] = np.where(kept, beta * base_row[1:], 0.0)
        active[cell.index, 1:] = kept
        if buffer_reallocation == "global":
            power[cell.index, 0] = _boosted_global(base_row, beta, kept)
    return TransmitPlan(grid=grid, scheme=scheme, power=power, active=active)


def allocate(grid: Grid, plan: ContentPlan, scheme: SchemeConfig) -> TransmitPlan:
    """Dispatch to the scheme's allocator, preserving the scheme label."""
    if scheme.kind is SchemeKind.OLSI:
        tp = allocate_olsi(grid, plan)
    elif scheme.kind is SchemeKind.IMLSI_PS:
        tp = allocate_ps(grid, plan, scheme.beta)
    else:
        tp = allocate_imo(grid, plan, scheme.beta, scheme.buffer_reallocation)
    return TransmitPlan(grid=tp.grid, scheme=scheme, power=tp.power.copy(), active=tp.active.copy())
