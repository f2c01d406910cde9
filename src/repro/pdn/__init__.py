"""Power-delivery-network and electromagnetic-emanation models.

The dI/dt viruses of the paper work by exciting the first-order resonance
of the chip's power-delivery network (PDN): switching CPU power at the
resonant frequency builds up the largest supply droop. Because the
X-Gene2 exposes no fine-grained voltage probes, the authors sense the
noise indirectly through radiated electromagnetic emanations (EM) and
drive their genetic search with EM amplitude (reference [14]).

This package supplies both halves of that methodology for the simulated
platform:

- :mod:`repro.pdn.rlc` -- a second-order RLC PDN with an impedance peak
  at the resonant frequency; time- and frequency-domain droop analysis.
- :mod:`repro.pdn.em` -- an EM sensor model deriving radiated amplitude
  from the same current waveform, so the EM-as-droop-proxy property the
  paper relies on holds *and can be tested* in our substrate.
"""

from repro.pdn.rlc import PdnModel, PdnParams, DEFAULT_PDN
from repro.pdn.droop import DroopAnalysis, analyze_loop
from repro.pdn.em import EmSensor

__all__ = [
    "DEFAULT_PDN",
    "DroopAnalysis",
    "EmSensor",
    "PdnModel",
    "PdnParams",
    "analyze_loop",
]
