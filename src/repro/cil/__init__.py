"""``repro.cil`` — an ECMA-335-subset Common Intermediate Language.

Public surface:

* :mod:`repro.cil.cts` — the Common Type System (interned types).
* :mod:`repro.cil.opcodes` — the instruction set.
* :class:`~repro.cil.metadata.Assembly` / ``ClassDef`` / ``MethodDef`` /
  ``FieldDef`` — self-describing metadata.
* :class:`~repro.cil.builder.MethodBuilder` — label-resolving IL emission.
* :func:`~repro.cil.verifier.verify_method` /
  :func:`~repro.cil.verifier.verify_assembly` — type-safety verification,
  the only walk of the evaluation stack; it records ``max_stack`` and the
  :func:`~repro.cil.verifier.stack_facts` both execution engines read.
* :func:`~repro.cil.disassembler.disassemble_method` — Table-5-style text.
"""

from . import cts, opcodes
from .assembler import assemble
from .builder import Label, MethodBuilder
from .disassembler import (
    disassemble_assembly,
    disassemble_body,
    disassemble_class,
    disassemble_method,
)
from .instructions import (
    CATCH,
    FINALLY,
    ExceptionRegion,
    FieldRef,
    Instruction,
    MethodRef,
)
from .metadata import Assembly, ClassDef, FieldDef, LocalVar, MethodDef
from .verifier import verify_assembly, verify_method

__all__ = [
    "cts",
    "opcodes",
    "Label",
    "MethodBuilder",
    "Assembly",
    "ClassDef",
    "FieldDef",
    "LocalVar",
    "MethodDef",
    "Instruction",
    "MethodRef",
    "FieldRef",
    "ExceptionRegion",
    "CATCH",
    "FINALLY",
    "verify_method",
    "assemble",
    "verify_assembly",
    "disassemble_method",
    "disassemble_body",
    "disassemble_class",
    "disassemble_assembly",
]
