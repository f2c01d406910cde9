"""Weak-cell sampling.

Simulating 3.9e10 individual cells is intractable; only the weak tail
matters. :class:`DramDevicePopulation` samples, once per bank, the
concrete population of cells weak enough to fail at a *profiling
condition* (the most aggressive interval/temperature it supports) and
assigns each a reference-temperature retention time from the conditional
tail law plus an orientation (true/anti cell). Any milder query
condition then filters that fixed population -- so cell sets nest
correctly across conditions, which is what makes "unique error
locations" well-defined, and the same cells answer 50 degC and 60 degC
queries about the *same* silicon.

This is the SoftMC-style retention-profiling trick in simulation form.
A :class:`WeakCellView` holds the sampled banks' cells end to end in
numpy arrays, so a query over a whole device is one vectorized pass,
not one per bank.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

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


def sample_weak_cell_count(rng: np.random.Generator, bits: int, probability: float,
                           variability: float = 1.0) -> int:
    """Draw a weak-cell count: Poisson around ``bits * p * variability``."""
    if probability < 0 or probability > 1:
        raise ConfigurationError(f"probability {probability} outside [0, 1]")
    mean = bits * probability * variability
    return int(rng.poisson(mean))


class WeakCellView:
    """The weak cells of one or more banks as one flat set of arrays.

    Sampled by :class:`DramDevicePopulation`, so every bank of a view
    shares geometry, retention statistics and profiling condition. A
    query over every bank is one vectorized pass: one threshold per
    condition, one comparison over all cells, per-bank counts from one
    ``bincount``. ``bank`` holds each cell's bank index within the view.
    Each cell carries a packed ``(bank, row, col)`` key whose field
    widths come from the geometry, so sorted keys run bank by bank, each
    bank in (row, col) address order.
    """

    def __init__(self, population: "DramDevicePopulation",
                 counts: Sequence[int], rows: np.ndarray, cols: np.ndarray,
                 retention_ref_s: np.ndarray, is_true: np.ndarray,
                 row_bits: int, col_bits: int) -> None:
        self.retention = population.retention
        self.profile_interval_s = population.profile_interval_s
        self.profile_temp_c = population.profile_temp_c
        self.banks = len(counts)
        self.row_bits, self.col_bits = row_bits, col_bits
        self.bank = np.repeat(np.arange(self.banks), counts)
        self.retention_ref_s = retention_ref_s
        self.is_true = is_true
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
        """Mask of every bank's cells failing at a condition.

        Raises :class:`ConfigurationError` for a condition beyond the
        profiling condition, whose failing cells were never sampled.
        """
        retention = self.retention
        threshold = retention.effective_threshold_s(interval_s, temp_c,
                                                    coupling)
        if threshold > retention.effective_threshold_s(
                self.profile_interval_s, self.profile_temp_c,
                retention.params.coupling_random):
            raise ConfigurationError(
                f"query condition ({interval_s}s, {temp_c}C, c={coupling}) "
                "exceeds the profiling condition of this view")
        return self.retention_ref_s < threshold

    def unique_locations(self, interval_s: float, temp_c: float) -> List[int]:
        """Unique error locations of every bank, in order.

        The union over all four DPBench pattern benchmarks: every
        orientation is stressed by some pattern, and the random pattern
        contributes the worst-case coupling -- so the union is the whole
        population under the random coupling factor. This is the Table I
        quantity.
        """
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

    def _sample(self, banks: Sequence[Tuple[int, int]]) -> WeakCellView:
        """Sample ``(device, bank)`` pairs into one :class:`WeakCellView`.

        Bank ``i`` of the view is ``banks[i]``. Each bank draws from its
        own ``weakcells-d{dev}-b{bank}`` substream, so it samples the same
        in any view and any process: a Poisson count of cells weak enough
        to fail at the profiling condition, then that many uniforms, rows,
        columns and true-cell uniforms. The conditional tail law (clip,
        inverse CDF, ``exp``) and the true-cell compare then run once over
        every bank's draws. Nothing is cached: the cells live only as long
        as the caller holds the view.
        """
        if not banks:
            raise ConfigurationError("a weak-cell view needs at least one bank")
        geometry = self.geometry
        col_bits = (geometry.bits_per_row - 1).bit_length()
        row_bits = (geometry.rows_per_bank - 1).bit_length()
        key_bits = (len(banks) - 1).bit_length() + row_bits + col_bits
        if key_bits > 63:
            raise ConfigurationError(
                f"a (bank, row, col) key of {len(banks)} banks needs "
                f"{key_bits} bits; at most 63 fit")
        params = self.retention.params
        tail_p = self.retention.fail_probability(
            self.profile_interval_s, self.profile_temp_c,
            coupling=params.coupling_random)
        counts, uniforms, rows, cols, true_draws = [], [], [], [], []
        for device, bank in banks:
            BankAddress(device, bank).validate(geometry)
            rng = substream(self._seed, f"weakcells-d{device}-b{bank}")
            chip = float(self.chip_factors[device])
            count = sample_weak_cell_count(
                rng, geometry.bits_per_bank, tail_p,
                variability=chip * float(self.bank_factors[device, bank]))
            counts.append(count)
            uniforms.append(rng.random(count))
            rows.append(rng.integers(geometry.rows_per_bank, size=count))
            cols.append(rng.integers(geometry.bits_per_row, size=count))
            true_draws.append(rng.random(count))
        uniforms = np.clip(np.concatenate(uniforms), 1e-12, 1.0)
        z = _normal_icdf_array(uniforms * tail_p)
        return WeakCellView(
            self, counts, np.concatenate(rows), np.concatenate(cols),
            np.exp(params.ln_median_s + params.ln_sigma * z),
            np.concatenate(true_draws) < params.true_cell_fraction,
            row_bits, col_bits)

    def bank_map(self, device: int, bank: int) -> WeakCellView:
        """One bank's weak cells, as a one-bank view."""
        return self._sample([(device, bank)])

    def device_cells(self, devices: Iterable[int]) -> WeakCellView:
        """Every bank of ``devices`` as one :class:`WeakCellView`.

        Bank ``i * banks_per_device + b`` of the view is bank ``b`` of
        the ``i``-th device.
        """
        return self._sample([(device, bank) for device in devices
                             for bank in range(self.geometry.banks_per_device)])

    def device_unique_locations(self, device: int, interval_s: float,
                                temp_c: float) -> List[int]:
        """Per-bank unique error locations for one device (a Table I row)."""
        return self.device_cells([device]).unique_locations(interval_s,
                                                            temp_c)
