"""Bandwidth Limiter — Section 2.3 of the paper.

The hardware module operates in *time windows* and admits only a limited
number of memory requests per window: to throttle to 33% of peak, set the
numerator register to 1 and the denominator to 3 — then one request is
admitted per 3-cycle window. Peak is one 64-byte request per cycle, i.e.
64 Bytes/cycle.

This model reproduces the window accounting exactly: requests arriving when
the current window's quota is spent wait for the next window. It exposes
both a stateful per-request interface (for the event engine) and a closed
form throughput bound (for the fast engine).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.util.units import LINE_BYTES


class BandwidthLimiter:
    """num-requests-per-den-cycle window throttle in front of DRAM."""

    def __init__(self, num: int = 1, den: int = 1) -> None:
        self._num = 1
        self._den = 1
        self.set_fraction(num, den)
        self.reset()

    # -- configuration -------------------------------------------------------

    def set_fraction(self, num: int, den: int) -> None:
        """Set the numerator/denominator registers (runtime-configurable)."""
        if num < 1 or den < 1:
            raise ConfigError(f"fraction terms must be >= 1, got {num}/{den}")
        if num > den:
            raise ConfigError(f"fraction {num}/{den} exceeds peak (1/1)")
        self._num = int(num)
        self._den = int(den)

    @property
    def fraction(self) -> tuple[int, int]:
        return self._num, self._den

    @property
    def requests_per_cycle(self) -> float:
        """Admitted request rate (requests/cycle)."""
        return self._num / self._den

    @property
    def bytes_per_cycle(self) -> float:
        """Admitted bandwidth with 64-byte requests."""
        return LINE_BYTES * self.requests_per_cycle

    # -- stateful admission (event engine) ------------------------------------

    def reset(self) -> None:
        self._window_start = 0
        self._window_used = 0
        self.admitted = 0            # requests admitted since reset
        self.throttle_cycles = 0.0   # total admission delay imposed
        # introspection only (repro.obs.record): admissions that took
        # the collapsed den==1 path. Deliberately NOT part of ``stats`` —
        # that dict is pinned bit-equal across the event engines.
        self.fast_admits = 0

    def admit(self, request_time: float) -> float:
        """Admission time for a request arriving at ``request_time``.

        Requests must be offered in non-decreasing time order (the event
        engine pops them from a priority queue).
        """
        t = int(request_time)
        if self._den == 1:
            # peak rate: one request per 1-cycle window. The window state
            # collapses to a next-free-cycle counter; the general path
            # below computes the same result with the same end state.
            at = self._window_start + self._window_used
            if at < t:
                at = t
            self._window_start = at
            self._window_used = 1
            self.admitted += 1
            self.fast_admits += 1
            d = at - request_time
            if d > 0.0:
                self.throttle_cycles += d
            return float(at)
        window = max(self._window_start, (t // self._den) * self._den)
        if window > self._window_start:
            self._window_start = window
            self._window_used = 0
        # advance windows until one has quota at/after the arrival time
        while True:
            if self._window_used < self._num:
                admit_at = max(t, self._window_start)
                if admit_at < self._window_start + self._den:
                    self._window_used += 1
                    self.admitted += 1
                    self.throttle_cycles += max(0.0, admit_at - request_time)
                    return float(admit_at)
            self._window_start += self._den
            self._window_used = 0
            t = max(t, self._window_start)

    @property
    def stats(self) -> dict:
        """Admission accounting since the last :meth:`reset`."""
        return {
            "admitted": self.admitted,
            "throttle_cycles": self.throttle_cycles,
        }

    # -- closed form (fast engine) --------------------------------------------

    def min_cycles_for_requests(self, n_requests: int) -> float:
        """Lower bound on cycles to stream ``n_requests`` through the limiter."""
        if n_requests <= 0:
            return 0.0
        full_windows = (n_requests - 1) // self._num
        return full_windows * self._den + 1.0

    def min_cycles_for_bytes(self, n_bytes: float) -> float:
        """Lower bound on cycles to move ``n_bytes`` (64 B per request)."""
        n_requests = -(-int(n_bytes) // LINE_BYTES)
        return self.min_cycles_for_requests(n_requests)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BandwidthLimiter({self._num}/{self._den})"
