"""Kernel selection: compiled extension if the build produced one,
pure-numpy fallback otherwise. Both expose the same functions and
produce bit-identical output."""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _kernels as _impl  # type: ignore[attr-defined]

    HAVE_COMPILED = True
except ImportError:
    _impl = _kernels_py
    HAVE_COMPILED = False

IMPL = _impl.IMPL
uniform_block = _impl.uniform_block
points_block = _impl.points_block
covered_count = _impl.covered_count


def implementations() -> dict[str, object]:
    """All available kernel implementations, for parity tests."""
    impls: dict[str, object] = {"python": _kernels_py}
    if HAVE_COMPILED:
        impls["compiled"] = _impl
    return impls
