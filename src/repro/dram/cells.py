"""Lazily-sampled weak-cell maps.

Simulating 3.9e10 individual cells is intractable; only the weak tail
matters. A :class:`WeakCellMap` samples, once per bank, the concrete
population of cells weak enough to fail at a *profiling condition* (the
most aggressive interval/temperature the map supports) and assigns each
a reference-temperature retention time from the conditional tail law plus
an orientation (true/anti cell). Any milder query condition then filters
that fixed population -- so cell sets nest correctly across conditions,
which is what makes "unique error locations" well-defined, and the same
map answers 50 degC and 60 degC queries about the *same* silicon.

This is the SoftMC-style retention-profiling trick in simulation form.
The population is held in numpy arrays; :class:`WeakCell` objects are
materialized only for the (small) failing subsets callers ask for. A
:class:`WeakCellView` lays several banks' populations end to end, so a
query over a whole device is one vectorized pass, not one per bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.geometry import BankAddress, DEFAULT_GEOMETRY, DramGeometry
from repro.dram.retention import (
    DEFAULT_RETENTION,
    RetentionModel,
    _normal_icdf_array,
)
from repro.errors import ConfigurationError
from repro.rand import SeedLike, substream

#: Default profiling condition: comfortably beyond the paper's most
#: aggressive study point (2.283 s at 60 degC) while keeping the sampled
#: population around a few tens of thousands of cells per bank.
DEFAULT_PROFILE_INTERVAL_S = 4.0
DEFAULT_PROFILE_TEMP_C = 62.0


@dataclass(frozen=True)
class WeakCell:
    """One weak cell inside a bank."""

    row: int
    col: int
    retention_ref_s: float   # retention time at the reference temperature
    is_true_cell: bool       # charged when storing '1'


def sample_weak_cell_count(rng: np.random.Generator, bits: int, probability: float,
                           variability: float = 1.0) -> int:
    """Draw a weak-cell count: Poisson around ``bits * p * variability``."""
    if probability < 0 or probability > 1:
        raise ConfigurationError(f"probability {probability} outside [0, 1]")
    mean = bits * probability * variability
    return int(rng.poisson(mean))


def _query_threshold_s(cells, interval_s: float, temp_c: float,
                       coupling: float) -> float:
    """Retention threshold of a query on a map or view of ``cells``.

    Raises :class:`ConfigurationError` for a condition beyond the
    profiling condition, whose failing cells were never sampled.
    """
    retention = cells.retention
    threshold = retention.effective_threshold_s(interval_s, temp_c, coupling)
    profile_threshold = retention.effective_threshold_s(
        cells.profile_interval_s, cells.profile_temp_c,
        retention.params.coupling_random,
    )
    if threshold > profile_threshold:
        raise ConfigurationError(
            f"query condition ({interval_s}s, {temp_c}C, c={coupling}) exceeds "
            f"the profiling condition of this map"
        )
    return threshold


class WeakCellMap:
    """The weak-cell population of one DRAM bank.

    Parameters
    ----------
    bank:
        Which bank this map profiles.
    geometry / retention:
        Shape of the bank and the retention statistics.
    chip_factor / bank_factor:
        Multiplicative process-variation factors for this device and
        bank (drawn by :class:`DramDevicePopulation`).
    profile_interval_s / profile_temp_c:
        The profiling condition bounding the sampled population. Queries
        beyond it raise :class:`ConfigurationError`.
    seed:
        Deterministic seed for this bank's population.
    """

    def __init__(self, bank: BankAddress,
                 geometry: DramGeometry = DEFAULT_GEOMETRY,
                 retention: Optional[RetentionModel] = None,
                 chip_factor: float = 1.0, bank_factor: float = 1.0,
                 profile_interval_s: float = DEFAULT_PROFILE_INTERVAL_S,
                 profile_temp_c: float = DEFAULT_PROFILE_TEMP_C,
                 seed: SeedLike = None) -> None:
        bank.validate(geometry)
        self.bank = bank
        self.geometry = geometry
        self.retention = retention or RetentionModel(DEFAULT_RETENTION)
        self.chip_factor = chip_factor
        self.bank_factor = bank_factor
        self.profile_interval_s = profile_interval_s
        self.profile_temp_c = profile_temp_c
        self._rng = substream(seed, f"weakcells-d{bank.device}-b{bank.bank}")
        self._population: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    @property
    def profile_tail_probability(self) -> float:
        """Tail mass at the profiling condition (worst coupling)."""
        return self.retention.fail_probability(
            self.profile_interval_s, self.profile_temp_c,
            coupling=self.retention.params.coupling_random,
        )

    def _arrays(self) -> Dict[str, np.ndarray]:
        if self._population is None:
            self._population = self._sample_population()
        return self._population

    def _sample_population(self) -> Dict[str, np.ndarray]:
        tail_p = self.profile_tail_probability
        count = sample_weak_cell_count(
            self._rng, self.geometry.bits_per_bank, tail_p,
            variability=self.chip_factor * self.bank_factor,
        )
        uniforms = np.clip(self._rng.random(count), 1e-12, 1.0)
        # Conditional tail law, vectorized inverse CDF.
        z = _normal_icdf_array(uniforms * tail_p) if count else np.empty(0)
        params = self.retention.params
        retention_ref = np.exp(params.ln_median_s + params.ln_sigma * z)
        return {
            "rows": self._rng.integers(self.geometry.rows_per_bank, size=count),
            "cols": self._rng.integers(self.geometry.bits_per_row, size=count),
            "retention_ref_s": retention_ref,
            "is_true": self._rng.random(count) < params.true_cell_fraction,
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _failing_mask(self, interval_s: float, temp_c: float,
                      stored_ones: Optional[bool], coupling: float) -> np.ndarray:
        threshold = _query_threshold_s(self, interval_s, temp_c, coupling)
        arrays = self._arrays()
        mask = arrays["retention_ref_s"] < threshold
        if stored_ones is not None:
            charged = arrays["is_true"] if stored_ones else ~arrays["is_true"]
            mask = mask & charged
        return mask

    def failing_count(self, interval_s: float, temp_c: float,
                      stored_ones: Optional[bool] = None,
                      coupling: float = 1.0) -> int:
        """Count of failing cells at a condition.

        ``stored_ones`` selects the data polarity (True = all ones,
        False = all zeros, None = every cell counted regardless of
        orientation -- the union over pattern polarities).
        """
        return int(self._failing_mask(interval_s, temp_c, stored_ones,
                                      coupling).sum())

    def failing_cells(self, interval_s: float, temp_c: float,
                      stored_ones: Optional[bool] = None,
                      coupling: float = 1.0) -> List[WeakCell]:
        """Concrete failing cells at a condition (materialized objects)."""
        mask = self._failing_mask(interval_s, temp_c, stored_ones, coupling)
        arrays = self._arrays()
        indices = np.nonzero(mask)[0]
        return [
            WeakCell(
                row=int(arrays["rows"][i]),
                col=int(arrays["cols"][i]),
                retention_ref_s=float(arrays["retention_ref_s"][i]),
                is_true_cell=bool(arrays["is_true"][i]),
            )
            for i in indices
        ]

    def unique_locations(self, interval_s: float, temp_c: float) -> int:
        """Unique error locations across the full DPBench suite.

        The union over all four pattern benchmarks: every orientation is
        stressed by some pattern, and the random pattern contributes the
        worst-case coupling -- so the union is the whole population under
        the random coupling factor. This is the Table I quantity.
        """
        return self.failing_count(
            interval_s, temp_c, stored_ones=None,
            coupling=self.retention.params.coupling_random,
        )


class WeakCellView:
    """The weak cells of several banks as one flat set of arrays.

    Built once from ``maps`` -- which must share geometry, retention
    statistics and profiling condition -- it answers a query over every
    bank in one vectorized pass: one threshold per condition, one
    comparison over all cells, per-bank counts from one ``bincount``.
    Bank ``i`` of the view is ``maps[i]``. Each cell carries a packed
    ``(bank, row, col)`` key whose field widths come from the geometry,
    so sorted keys run bank by bank, each bank in (row, col) address
    order. The view keeps no reference to the maps.
    """

    def __init__(self, maps: Sequence[WeakCellMap]) -> None:
        if not maps:
            raise ConfigurationError("a weak-cell view needs at least one bank")
        first = maps[0]
        condition = (first.geometry, first.retention.params,
                     first.profile_interval_s, first.profile_temp_c)
        if any((m.geometry, m.retention.params, m.profile_interval_s,
                m.profile_temp_c) != condition for m in maps[1:]):
            raise ConfigurationError(
                "the banks of one view must share geometry, retention "
                "statistics and profiling condition")
        geometry = first.geometry
        self.retention = first.retention
        self.profile_interval_s = first.profile_interval_s
        self.profile_temp_c = first.profile_temp_c
        self.banks = len(maps)
        self.col_bits = (geometry.bits_per_row - 1).bit_length()
        self.row_bits = (geometry.rows_per_bank - 1).bit_length()
        key_bits = (self.banks - 1).bit_length() + self.row_bits + self.col_bits
        if key_bits > 63:
            raise ConfigurationError(
                f"a (bank, row, col) key of {self.banks} banks needs "
                f"{key_bits} bits; at most 63 fit")
        arrays = [m._arrays() for m in maps]
        rows = np.concatenate([a["rows"] for a in arrays])
        cols = np.concatenate([a["cols"] for a in arrays])
        self.bank = np.repeat(np.arange(self.banks),
                              [a["rows"].size for a in arrays])
        self.retention_ref_s = np.concatenate(
            [a["retention_ref_s"] for a in arrays])
        self.is_true = np.concatenate([a["is_true"] for a in arrays])
        self.keys = (self.bank << (self.row_bits + self.col_bits)
                     | rows << self.col_bits | cols)
        # Non-solid patterns charge about half the weak cells: the
        # deterministic half by column parity (checker), or by a seeded
        # coin implicit in the cell's address (random-like).
        charged_parity = np.where(self.is_true, 0, 1)
        self.keep_checker = cols % 2 == charged_parity
        self.keep_random = (cols + rows) % 2 == charged_parity

    def failing(self, interval_s: float, temp_c: float,
                coupling: float) -> np.ndarray:
        """Mask of every bank's cells failing at a condition."""
        return self.retention_ref_s < _query_threshold_s(
            self, interval_s, temp_c, coupling)

    def unique_locations(self, interval_s: float, temp_c: float) -> List[int]:
        """:meth:`WeakCellMap.unique_locations` of every bank, in order."""
        failing = self.failing(interval_s, temp_c,
                               self.retention.params.coupling_random)
        return np.bincount(self.bank[failing],
                           minlength=self.banks).tolist()


class DramDevicePopulation:
    """All banks of all devices on the board, with process variation.

    Chip-to-chip factors are lognormal with sigma ``chip_sigma`` (the
    paper: "large variation of the number of weak cells across the DRAM
    chips"). Bank factors have two components: a *shared* per-bank-index
    factor (sigma ``bank_sigma``) modelling systematic die-layout effects
    common to all devices of the same part number -- the component that
    survives aggregation across the 72 chips and produces Table I's
    bank-to-bank variation -- plus small per-chip-bank noise.
    """

    def __init__(self, geometry: DramGeometry = DEFAULT_GEOMETRY,
                 retention: Optional[RetentionModel] = None,
                 chip_sigma: float = 0.30, bank_sigma: float = 0.05,
                 chip_bank_sigma: float = 0.02,
                 profile_interval_s: float = DEFAULT_PROFILE_INTERVAL_S,
                 profile_temp_c: float = DEFAULT_PROFILE_TEMP_C,
                 seed: SeedLike = None) -> None:
        self.geometry = geometry
        self.retention = retention or RetentionModel(DEFAULT_RETENTION)
        self._seed = seed
        self.profile_interval_s = profile_interval_s
        self.profile_temp_c = profile_temp_c
        factor_rng = substream(seed, "dram-population-factors")
        self.chip_factors = np.exp(
            factor_rng.normal(0.0, chip_sigma, size=geometry.num_devices))
        shared = np.exp(
            factor_rng.normal(0.0, bank_sigma, size=geometry.banks_per_device))
        noise = np.exp(
            factor_rng.normal(0.0, chip_bank_sigma,
                              size=(geometry.num_devices, geometry.banks_per_device)))
        self.bank_factors = shared[np.newaxis, :] * noise
        self._maps: Dict[Tuple[int, int], WeakCellMap] = {}

    def _new_map(self, device: int, bank: int) -> WeakCellMap:
        address = BankAddress(device, bank)
        address.validate(self.geometry)
        return WeakCellMap(
            address, geometry=self.geometry, retention=self.retention,
            chip_factor=float(self.chip_factors[device]),
            bank_factor=float(self.bank_factors[device, bank]),
            profile_interval_s=self.profile_interval_s,
            profile_temp_c=self.profile_temp_c,
            seed=self._seed,
        )

    def bank_map(self, device: int, bank: int) -> WeakCellMap:
        """The (cached) weak-cell map of one bank."""
        key = (device, bank)
        if key not in self._maps:
            self._maps[key] = self._new_map(device, bank)
        return self._maps[key]

    def device_cells(self, devices: Iterable[int]) -> WeakCellView:
        """Every bank of ``devices`` as one :class:`WeakCellView`.

        Bank ``i * banks_per_device + b`` of the view is bank ``b`` of
        the ``i``-th device. Each bank samples from its own substream,
        exactly as :meth:`bank_map` would, but nothing is cached: the
        populations live only as long as the caller holds the view.
        """
        return WeakCellView([self._new_map(device, bank)
                             for device in devices
                             for bank in range(self.geometry.banks_per_device)])

    def device_unique_locations(self, device: int, interval_s: float,
                                temp_c: float) -> List[int]:
        """Per-bank unique error locations for one device (a Table I row)."""
        return [
            self.bank_map(device, bank).unique_locations(interval_s, temp_c)
            for bank in range(self.geometry.banks_per_device)
        ]
