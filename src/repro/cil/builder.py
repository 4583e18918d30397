"""Programmatic CIL emission with label fix-up.

The :class:`MethodBuilder` is what the Kernel-C# code generator (and tests)
use to emit method bodies: it supports forward-referencing labels, local
allocation, and exception-region bracketing, then produces a finished
:class:`~repro.cil.metadata.MethodDef` with resolved branch targets.  The
verifier computes its ``max_stack``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import CilError
from . import opcodes as op
from .cts import CType
from .instructions import CATCH, FINALLY, ExceptionRegion, Instruction
from .metadata import LocalVar, MethodDef


class Label:
    """A branch target; position is patched when marked."""

    __slots__ = ("name", "position")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.position: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Label {self.name or id(self)} @{self.position}>"


class MethodBuilder:
    """Builds one method body instruction by instruction."""

    def __init__(self, method: MethodDef) -> None:
        self.method = method
        self._instructions: List[Instruction] = []
        self._fixups: List[Tuple[int, Label]] = []
        self._switch_fixups: List[Tuple[int, List[Label]]] = []
        self._local_index: Dict[str, int] = {
            v.name: i for i, v in enumerate(method.locals)
        }
        self._regions: List[ExceptionRegion] = []
        #: positions where labels were marked (targets of future jumps);
        #: code generators must not treat such positions as unreachable
        self._marked_positions: set = set()
        self.current_line = 0

    # -- locals ------------------------------------------------------------

    def declare_local(self, name: str, var_type: CType) -> int:
        """Declare a named local, returning its index. Anonymous temps pass
        a unique generated name."""
        if name in self._local_index:
            raise CilError(f"duplicate local {name!r} in {self.method.name}")
        index = len(self.method.locals)
        self.method.locals.append(LocalVar(name, var_type))
        self._local_index[name] = index
        return index

    def local_index(self, name: str) -> int:
        try:
            return self._local_index[name]
        except KeyError:
            raise CilError(f"unknown local {name!r} in {self.method.name}") from None

    # -- emission ------------------------------------------------------------

    def emit(self, opcode: int, operand: object = None) -> Instruction:
        instr = Instruction(opcode, operand, line=self.current_line)
        self._instructions.append(instr)
        return instr

    def new_label(self, name: str = "") -> Label:
        return Label(name)

    def mark_label(self, label: Label) -> None:
        if label.position is not None:
            raise CilError(f"label {label.name!r} marked twice")
        label.position = len(self._instructions)
        self._marked_positions.add(label.position)

    def emit_branch(self, opcode: int, label: Label) -> Instruction:
        if opcode not in op.BRANCHES:
            raise CilError(f"{op.mnemonic(opcode)} is not a branch opcode")
        instr = self.emit(opcode, None)
        self._fixups.append((len(self._instructions) - 1, label))
        return instr

    def emit_switch(self, labels: List[Label]) -> Instruction:
        instr = self.emit(op.SWITCH, None)
        self._switch_fixups.append((len(self._instructions) - 1, list(labels)))
        return instr

    @property
    def position(self) -> int:
        return len(self._instructions)

    # -- exception regions ---------------------------------------------------

    def add_region(
        self,
        kind: str,
        try_start: int,
        try_end: int,
        handler_start: int,
        handler_end: int,
        catch_type: Optional[str] = None,
    ) -> ExceptionRegion:
        if kind not in (CATCH, FINALLY):
            raise CilError(f"bad region kind {kind!r}")
        if kind == CATCH and not catch_type:
            raise CilError("catch region requires a catch_type")
        region = ExceptionRegion(kind, try_start, try_end, handler_start, handler_end, catch_type)
        self._regions.append(region)
        return region

    # -- finish ----------------------------------------------------------------

    def build(self) -> MethodDef:
        """Resolve labels and return the finished method."""
        for index, label in self._fixups:
            if label.position is None:
                raise CilError(
                    f"unresolved label {label.name!r} in {self.method.name}"
                )
            self._instructions[index].operand = label.position
        for index, labels in self._switch_fixups:
            targets = []
            for label in labels:
                if label.position is None:
                    raise CilError(
                        f"unresolved switch label {label.name!r} in {self.method.name}"
                    )
                targets.append(label.position)
            self._instructions[index].operand = targets
        self.method.body = self._instructions
        self.method.regions = self._regions
        return self.method

