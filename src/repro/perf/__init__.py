"""Wall-clock performance layer (kernel-mode switch + peel kernels).

The simulated runtime's *accounting* is independent of how fast the host
Python actually executes a peel; ``repro.perf`` is about the latter.  It
provides compiled kernels for the hot peel paths that reproduce the
reference implementations' metrics ledger bit-for-bit (enforced by the
regression goldens), plus the ``REPRO_KERNELS`` switch that selects
between the two tiers:

* ``auto`` (default) — ``native``; on a host where no C compiler can
  build it, ``reference``, with a one-time ``RuntimeWarning``;
* ``native`` — the C kernels compiled on first use (see
  :mod:`repro.perf.native`), plus the flat NumPy paths that have no C
  twin; an error if no compiler is available;
* ``reference`` — the original straight-line Python loops, kept as the
  equivalence oracle for property tests and A/B wall-clock comparisons.

Both tiers are bit-exact with each other: same coreness, same metrics
ledger, same RNG stream.  The mode is purely a wall-clock knob.
"""

from __future__ import annotations

import os
import warnings

from repro.obs.registry import active_registry

#: Environment variable selecting the kernel implementation.
KERNELS_ENV = "REPRO_KERNELS"

AUTO = "auto"
NATIVE = "native"
REFERENCE = "reference"

_VALID_MODES = (AUTO, NATIVE, REFERENCE)

#: Whether this process has already warned that ``auto`` fell back.
_fallback_warned = False


def native_available() -> bool:
    """Whether the compiled native kernel can be (or has been) loaded."""
    from repro.perf.native import available

    return available()


def kernel_mode() -> str:
    """The active kernel implementation, resolved to a concrete mode.

    Returns ``native`` or ``reference``.  The default ``auto`` resolves
    to ``native``; on a host without a working C compiler it falls back
    to ``reference`` loudly (a one-time ``RuntimeWarning`` and the
    ``kernel.fallback.native_unavailable`` counter).  The payloads are
    bit-identical across modes, so only the wall-clock depends on the
    host toolchain.
    """
    global _fallback_warned
    mode = os.environ.get(KERNELS_ENV, AUTO).strip().lower()
    if mode not in _VALID_MODES:
        raise ValueError(
            f"{KERNELS_ENV} must be one of {_VALID_MODES}, got {mode!r}"
        )
    registry = active_registry()
    if mode == AUTO:
        resolved = NATIVE if native_available() else REFERENCE
        if resolved != NATIVE and not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                f"{KERNELS_ENV}={AUTO}: no C compiler could build the "
                f"native kernels; running the {REFERENCE} loops",
                RuntimeWarning,
                stacklevel=2,
            )
        if registry is not None:
            registry.inc(f"kernel.mode.{resolved}")
            if resolved != NATIVE:
                registry.inc("kernel.fallback.native_unavailable")
        return resolved
    if mode == NATIVE and not native_available():
        raise RuntimeError(
            f"{KERNELS_ENV}={NATIVE} but no C compiler is available; "
            f"use {AUTO} to fall back to the {REFERENCE} loops"
        )
    if registry is not None:
        registry.inc(f"kernel.mode.{mode}")
    return mode


__all__ = [
    "AUTO",
    "KERNELS_ENV",
    "NATIVE",
    "REFERENCE",
    "kernel_mode",
    "native_available",
]
