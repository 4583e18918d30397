"""``repro.vm`` — the Virtual Execution System.

Two engines share the loader/object model:

* :class:`~repro.vm.interpreter.Interpreter` — direct CIL walker, the
  semantic reference (single-threaded, no cost model).
* :class:`~repro.vm.machine.Machine` — the measured engine: per-profile
  JIT (MIR) + cycle accounting + cooperative threads.

Attributes are resolved lazily so that leaf modules (``values``,
``objects``, ``intrinsics``) can be imported by :mod:`repro.jit` without
creating a package-level import cycle (the machine imports the JIT).
"""

from typing import TYPE_CHECKING

__all__ = ["Interpreter", "LoadedAssembly", "Machine"]

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .interpreter import Interpreter
    from .loader import LoadedAssembly
    from .machine import Machine

_LAZY = {
    "Interpreter": ("repro.vm.interpreter", "Interpreter"),
    "LoadedAssembly": ("repro.vm.loader", "LoadedAssembly"),
    "Machine": ("repro.vm.machine", "Machine"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attr)
