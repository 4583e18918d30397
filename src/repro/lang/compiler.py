"""Public compiler driver: Kernel-C# source -> verified CIL assembly.

This is the reproduction's analogue of the paper's single-compiler rule
("we use a single compiler (the CLR 1.1 C# compiler) to generate the
intermediate code, and this code is then executed on each of the different
runtimes"): :func:`compile_source` runs once; every runtime profile consumes
the identical :class:`~repro.cil.metadata.Assembly`.
"""

from __future__ import annotations

from typing import Optional

from ..cil.metadata import Assembly
from ..cil.verifier import verify_assembly
from .builtins import CORELIB_SOURCE
from .codegen import CodeGen
from .parser import parse
from .typecheck import check_program

#: compiler generation tag; part of every persistent compile-cache key
#: (:mod:`repro.parallel.cache`).  Bump whenever the front end, codegen, or
#: verifier change observable output, so stale cached assemblies are never
#: reused across compiler versions.
COMPILER_VERSION = "kernel-cs/2"

#: process-local call accounting, primarily so tests (and the parallel
#: layer's cache-effectiveness assertions) can prove a warm compile cache
#: performs zero real compilations.
COMPILE_STATS = {"compile_source_calls": 0}


def compile_source(
    source: str,
    assembly_name: str = "program",
    entry_class: Optional[str] = None,
    entry_method: str = "Main",
    include_corelib: bool = True,
) -> Assembly:
    """Compile Kernel-C# ``source`` into a verified CIL assembly.

    ``entry_class`` of ``None`` picks the first class defining a static
    method named ``entry_method`` (if any); the assembly then carries an
    entry point the machine can run directly.
    """
    COMPILE_STATS["compile_source_calls"] += 1
    full = (CORELIB_SOURCE + "\n" + source) if include_corelib else source
    program = parse(full)
    checker = check_program(program)
    assembly = CodeGen(checker, assembly_name).generate()
    verify_assembly(assembly)
    if entry_class is None:
        for cls in assembly.classes.values():
            m = cls.find_method(entry_method)
            if m is not None and m.is_static:
                entry_class = cls.name
                break
    if entry_class is not None:
        cls = assembly.get_class(entry_class)
        if cls.find_method(entry_method) is not None:
            assembly.set_entry_point(entry_class, entry_method)
    return assembly


def compile_file(path: str, **kwargs) -> Assembly:
    """Compile a ``.cs`` file from disk (see :func:`compile_source`)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    kwargs.setdefault("assembly_name", path.rsplit("/", 1)[-1].rsplit(".", 1)[0])
    return compile_source(source, **kwargs)
