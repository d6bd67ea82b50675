"""SimSanitizer: runtime invariant checking for the whole simulator.

Public surface:

* :class:`SanitizeViolation` — the structured assertion every checker
  raises (layer, invariant, detail).
* :class:`Sanitizer` / :class:`SanitizerObserver` — a set of armed
  per-layer checkers plus the observer that drives them off the engine's
  hook points.  ``SanitizerObserver.for_level("cheap"|"full")`` is the
  one-liner the experiments CLI uses for ``--sanitize``.
* Per-layer checkers: :class:`KernelChecker`, :class:`HeapChecker`,
  :class:`CacheChecker`, :class:`DramChecker`.
* :mod:`repro.sanitize.diff` — the differential oracle across the
  engine's fast/reference/traced modes (two replay loops: batched and
  reference, the traced mode being the reference loop with its hooks
  on) plus the analytic model.
* :mod:`repro.sanitize.fuzz` — the randomized fuzz driver
  (``tools/fuzz_sim.py`` is its CLI).
"""

from repro.sanitize.alloc_check import HeapChecker
from repro.sanitize.base import (
    CHEAP_CHECK_EVERY,
    FULL_CHECK_EVERY,
    LEVELS,
    Checker,
    Sanitizer,
    SanitizerObserver,
    SanitizeViolation,
)
from repro.sanitize.cache_check import CacheChecker
from repro.sanitize.dram_check import DramChecker
from repro.sanitize.kernel_check import KernelChecker

__all__ = [
    "CHEAP_CHECK_EVERY",
    "FULL_CHECK_EVERY",
    "LEVELS",
    "CacheChecker",
    "Checker",
    "DramChecker",
    "HeapChecker",
    "KernelChecker",
    "Sanitizer",
    "SanitizerObserver",
    "SanitizeViolation",
]
