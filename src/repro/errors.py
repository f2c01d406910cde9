"""Exception hierarchy for the guardbands reproduction library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base type. Hardware-style failure events (a crashed chip, a hung
benchmark) are *not* exceptions -- they are modelled outcomes (see
``repro.cpu.outcomes``). Exceptions here signal misuse of the API or an
internally inconsistent configuration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or out-of-range values."""


class TopologyError(ConfigurationError):
    """A reference into the SoC/DRAM topology does not exist."""


class VoltageDomainError(ConfigurationError):
    """A voltage request falls outside the regulator's programmable range."""


class CampaignError(ReproError):
    """The characterization campaign was driven through an invalid state."""


class SupervisionError(CampaignError):
    """Supervised execution quarantined one or more work units.

    Raised by :meth:`repro.core.supervisor.MapOutcome.unwrap` when units
    exhausted their retry budget; :attr:`failures` holds the typed
    :class:`~repro.core.supervisor.UnitFailure` records (crash / hang /
    poison) instead of a raw worker traceback.
    """

    def __init__(self, failures=()) -> None:
        self.failures = tuple(failures)
        described = "; ".join(
            getattr(f, "describe", lambda: str(f))()
            for f in self.failures) or "no failure detail"
        super().__init__(
            f"{len(self.failures)} work unit(s) quarantined: {described}")


class MeasurementInvalidError(CampaignError):
    """A retention query hit a zone whose regulation is not trustworthy.

    Raised by :meth:`repro.thermal.binding.ThermalDramBinding.require_valid`
    when a device's zone is quarantined or out of the paper's 1 degC band:
    retention follows an Arrhenius law, so measuring anyway would silently
    corrupt weak-cell counts instead of failing loudly.
    """


class SearchError(ReproError):
    """A parameter search (Vmin search, GA) could not produce a result."""


class EccError(ReproError):
    """Malformed input to the ECC encoder/decoder (wrong word width etc.)."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel was misused."""


class WorkloadError(ConfigurationError):
    """An unknown workload name or invalid workload parameter."""
