"""SPECweb2009-like multi-tier web service model.

The scale-up case study (Sec. 4.2) runs the *support* workload — "mostly
I/O-intensive and read-only" large-file downloads — on 5 front-end plus 5
back-end instances, switching between large and extra-large types.  Its
SLO is the SPECweb2009 compliance rule: "at least 95% of the downloads
meet a minimum 0.99 Mbps rate", which we expose as a QoS percentage.
"""

from __future__ import annotations

import numpy as np

from repro.services.base import Service
from repro.services.perf_model import QueueingModel
from repro.services.slo import QoSSLO

#: SPECweb2009 compliance floor (Sec. 4.2).
DEFAULT_SLO = QoSSLO(floor_percent=95.0)


class SpecWebService(Service):
    """SPECweb2009 with a download-rate QoS curve.

    The QoS knee sits below the latency knee because large downloads
    degrade (miss the 0.99 Mbps floor) before interactive latency blows
    up: past ``qos_knee`` utilization, each point of extra utilization
    costs ``qos_slope`` percentage points of compliant downloads.
    """

    def __init__(
        self,
        slo: QoSSLO = DEFAULT_SLO,
        model: QueueingModel | None = None,
        qos_knee: float = 0.70,
        qos_slope: float = 60.0,
    ) -> None:
        if model is None:
            # Large-file transfers: higher base service time than the
            # interactive services.
            model = QueueingModel(base_latency_ms=35.0, max_latency_ms=400.0)
        super().__init__(name="specweb-support", slo=slo, model=model)
        if not 0 < qos_knee < 1:
            raise ValueError(f"QoS knee must be in (0,1): {qos_knee}")
        if qos_slope <= 0:
            raise ValueError(f"QoS slope must be positive: {qos_slope}")
        self._knee = qos_knee
        self._slope = qos_slope

    def row_key(self) -> tuple:
        return (type(self), self.model, self.slo, self._knee, self._slope)

    def _qos_percent(self, rho: float) -> float:
        qos = 99.5 - max(0.0, rho - self._knee) * self._slope
        return float(max(50.0, min(99.5, qos)))

    def _qos_rows(self, rho: "np.ndarray") -> "np.ndarray":
        qos = 99.5 - np.maximum(0.0, rho - self._knee) * self._slope
        return np.maximum(50.0, np.minimum(99.5, qos))
