"""Single-excitation Hamiltonians for ordered and centrally disordered XXZ chains.

The chain state space is the N-dimensional single-excitation sector, never the
full spin Hilbert space, so a Hamiltonian is just two arrays: the main
diagonal and the (uniform) hopping off-diagonal.  Matrix conventions follow
the rescaled units in which the hopping element equals the XY coupling
gamma, with time carrying the leftover factor of two.

All construction here is pure and deterministic: a (seed, realization_index)
pair always produces the same disorder draws, so ensembles are reproducible
and realizations can be built concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DISORDER_MODES = ("jz_coupling", "onsite_field")
DIAG_SIGNS = ("plus", "minus")

# Seeds are 64-bit: derive_seed works mod 2**64, so larger ones would alias.
SEED_LIMIT = 1 << 64
_MASK64 = SEED_LIMIT - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def derive_seed(seed: int, realization_index: int) -> int:
    """Per-realization RNG seed, by a splitmix64-style avalanche.

    Bit-exact definition (all arithmetic mod 2**64):

        z = seed + (realization_index + 1) * 0x9E3779B97F4A7C15
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    Distinct realization indices land in statistically independent streams
    while staying reproducible from the base seed alone.
    """
    if realization_index < 0:
        raise ValueError(f"realization_index must be >= 0, got {realization_index}")
    z = (int(seed) + (int(realization_index) + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class ConfigError(ValueError):
    """Invalid spec value; `where` is the dotted path of the offending field."""

    def __init__(self, where: str, message: str):
        self.where = where
        self.message = message
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class DisorderSpec:
    """Uniformly random couplings or fields on sites -L..+L around the origin.

    mode "jz_coupling" draws Jz values for the 2L bonds interior to the
    region and maps them onto the diagonal as d_k = sign * (Jz_left +
    Jz_right).  The weight per adjacent bond is 1, not the bare sigma_z
    sigma_z weight 2, because the whole matrix lives in the halved energy
    units that put the hopping element at gamma instead of 2*gamma; the
    uniform additive constant of the sigma_z sigma_z sum is dropped as a
    global phase.  mode "onsite_field" draws local fields placed directly on
    the 2L+1 region sites.  A config never sets `seed`: it is the ensemble's
    base seed.  Both lie in [0, SEED_LIMIT).
    """

    mode: str = "jz_coupling"
    half_width: int = 0
    low: float = 0.0
    high: float = 0.0
    seed: int = field(default=0, metadata={"derived": True})
    diag_sign: str = "plus"

    def __post_init__(self):
        if self.mode not in DISORDER_MODES:
            raise ConfigError("mode", f"expected one of {DISORDER_MODES}, got {self.mode!r}")
        if self.diag_sign not in DIAG_SIGNS:
            raise ConfigError("diag_sign", f"expected one of {DIAG_SIGNS}, got {self.diag_sign!r}")
        if self.half_width < 0:
            raise ConfigError("half_width", f"must be >= 0, got {self.half_width}")
        if not -np.inf < self.low <= self.high < np.inf:
            raise ConfigError("high", f"need finite low <= high, got low={self.low}, high={self.high}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError("seed", f"must lie in [0, 2**64), got {self.seed}")

    @property
    def is_ordered(self) -> bool:
        """True when every realization yields an identically zero diagonal."""
        if self.low == 0.0 and self.high == 0.0:
            return True
        return self.mode == "jz_coupling" and self.half_width == 0


@dataclass(frozen=True)
class ChainSpec:
    """An odd-length chain with the excitation origin at the exact center."""

    num_sites: int
    gamma: float = 1.0
    disorder: DisorderSpec = field(default_factory=DisorderSpec)

    def __post_init__(self):
        if self.num_sites < 1 or self.num_sites % 2 == 0:
            raise ConfigError("num_sites", f"must be odd and positive, got {self.num_sites}")
        if not np.isfinite(self.gamma):
            raise ConfigError("gamma", f"must be finite, got {self.gamma}")
        if 2 * self.disorder.half_width + 1 > self.num_sites:
            raise ConfigError(
                "disorder.half_width",
                f"disordered region ({2 * self.disorder.half_width + 1} sites) exceeds "
                f"chain length {self.num_sites}",
            )

    @property
    def origin(self) -> int:
        return (self.num_sites - 1) // 2


@dataclass(frozen=True)
class Hamiltonian:
    """Real symmetric tridiagonal matrix: main diagonal plus hopping off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if self.diag.ndim != 1 or self.offdiag.ndim != 1:
            raise ValueError("diag and offdiag must be 1-d arrays")
        if len(self.offdiag) != max(len(self.diag) - 1, 0):
            raise ValueError(
                f"offdiag length {len(self.offdiag)} does not match diag length {len(self.diag)}"
            )

    @property
    def num_sites(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        """Materialize the full matrix (tests and small oracles only)."""
        dense = np.diag(self.diag)
        n = self.num_sites
        if n > 1:
            dense[np.arange(n - 1), np.arange(1, n)] = self.offdiag
            dense[np.arange(1, n), np.arange(n - 1)] = self.offdiag
        return dense


def sample_disorder(spec: DisorderSpec, realization_index: int) -> np.ndarray:
    """The 2L+1 raw uniform draws in [low, high) for one realization.

    jz_coupling consumes the first 2L draws (one per interior bond, left to
    right); onsite_field consumes all 2L+1 (one per region site).  Sampling
    always emits the full 2L+1 so both modes share one stream layout.
    """
    rng = np.random.Generator(np.random.PCG64(derive_seed(spec.seed, realization_index)))
    return rng.uniform(spec.low, spec.high, 2 * spec.half_width + 1)


def build_hamiltonian(spec: ChainSpec, realization_index: int = 0) -> Hamiltonian:
    """Single-excitation Hamiltonian for one disorder realization.

    The hopping is gamma on every bond.  jz_coupling assigns random Jz to the
    2L bonds between sites origin-L .. origin+L and accumulates
    d_k = sign * (sum of Jz over the bonds touching site k), the sigma_z
    sigma_z diagonal expressed in the rescaled units of the unit hopping;
    bonds outside the region carry Jz = 0, so the diagonal support ends at
    the region edge.
    """
    n = spec.num_sites
    diag = np.zeros(n)
    offdiag = np.full(max(n - 1, 0), float(spec.gamma))
    dis = spec.disorder
    if not dis.is_ordered:
        draws = sample_disorder(dis, realization_index)
        sign = 1.0 if dis.diag_sign == "plus" else -1.0
        lo = spec.origin - dis.half_width
        if dis.mode == "jz_coupling":
            for i in range(2 * dis.half_width):
                jz = draws[i]
                diag[lo + i] += sign * jz
                diag[lo + i + 1] += sign * jz
        else:
            diag[lo : lo + 2 * dis.half_width + 1] = draws
    return Hamiltonian(diag=diag, offdiag=offdiag)


def spectral_bounds(h: Hamiltonian) -> tuple[float, float]:
    """Gershgorin enclosure (emin, emax) containing every eigenvalue."""
    n = h.num_sites
    radius = np.zeros(n)
    if n > 1:
        absoff = np.abs(h.offdiag)
        radius[:-1] += absoff
        radius[1:] += absoff
    return float(np.min(h.diag - radius)), float(np.max(h.diag + radius))
