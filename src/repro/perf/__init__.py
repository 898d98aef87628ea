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

Each run resolves the mode once, where it starts (:func:`kernel_mode`),
and carries it on its :class:`repro.perf.kernels.KernelScratch`.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterator
from contextlib import contextmanager

from repro.obs.registry import HOST

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


def kernel_mode(registry=None) -> str:
    """The kernel implementation of one run, resolved to a concrete mode.

    Returns ``native`` or ``reference``.  The default ``auto`` resolves
    to ``native``; where the native kernels do not load it falls back
    to ``reference`` loudly (a one-time ``RuntimeWarning`` naming the
    cause, and the ``kernel.fallback.native_unavailable`` counter).
    The payloads are bit-identical across modes, so only the wall-clock
    depends on the host toolchain.  The decision is counted as the
    ``host`` counter ``kernel.mode.<mode>`` into ``registry``, the run's
    own, if any.
    """
    global _fallback_warned
    mode = os.environ.get(KERNELS_ENV, AUTO).strip().lower()
    if mode not in _VALID_MODES:
        raise ValueError(
            f"{KERNELS_ENV} must be one of {_VALID_MODES}, got {mode!r}"
        )
    if mode != REFERENCE and not native_available():
        from repro.perf.native import failure

        if mode == NATIVE:
            raise RuntimeError(
                f"{KERNELS_ENV}={NATIVE} but the native kernels are "
                f"unavailable: {failure()}; use {AUTO} to fall back to "
                f"the {REFERENCE} loops"
            )
        mode = REFERENCE
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                f"{KERNELS_ENV}={AUTO}: the native kernels are "
                f"unavailable ({failure()}); running the {REFERENCE} loops",
                RuntimeWarning,
                stacklevel=2,
            )
        if registry is not None:
            registry.inc("kernel.fallback.native_unavailable", family=HOST)
    elif mode == AUTO:
        mode = NATIVE
    if registry is not None:
        registry.inc(f"kernel.mode.{mode}", family=HOST)
    return mode


@contextmanager
def kernels_env(mode: str) -> Iterator[None]:
    """Run the block under ``REPRO_KERNELS=mode``; restore it after."""
    previous = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = previous


def kernel_modes(spec: str = "all") -> list[str]:
    """``all`` (reference, plus native where it builds) or a comma list.

    Each listed mode is resolved as a run would resolve it, so ``auto``
    becomes the mode it runs; an unknown one raises ``ValueError``.
    """
    if spec == "all":
        return [REFERENCE] + ([NATIVE] if native_available() else [])
    modes = []
    for name in filter(str.strip, spec.split(",")):
        with kernels_env(name):
            modes.append(kernel_mode())
    return list(dict.fromkeys(modes))


__all__ = [
    "AUTO",
    "KERNELS_ENV",
    "NATIVE",
    "REFERENCE",
    "kernel_mode",
    "kernel_modes",
    "kernels_env",
    "native_available",
]
