"""Tables 5-8 — the paper's code-generation study of the integer division
benchmark.

Table 5: C# source + resulting CIL; Tables 6-7: machine code from the two
commercial JITs (CLR 1.1 and IBM JVM); Table 8: the two open-source JITs
(Mono and SSCLI, with its emulated ``cdq``).  This module compiles the same
division loop once and renders every profile's generated code.
"""

from __future__ import annotations

from typing import Dict, List

from ...cil.disassembler import disassemble_body
from ...jit.emitter import render_x86
from ...jit.pipeline import JitCompiler
from ...lang import compile_source
from ...runtimes import CLR11, IBM131, MICRO_PROFILES, MONO023, SSCLI10
from ...vm.loader import LoadedAssembly
from ..results import ExperimentCheck, ExperimentResult
from ..runner import plan

#: the exact shape of the paper's Table 5 benchmark extract
DIVISION_SOURCE = """
class DivBench {
    static int Main() {
        int size = 10000;
        int i1 = int.MaxValue;
        int i2 = 3;
        for (int i = 0; i < size; i++) {
            i1 = i1 / i2;
            if (i1 == 0) { i1 = int.MaxValue; }
        }
        return i1;
    }
}
"""


def cells(scale: float = 1.0):
    """Tables 5-8 render generated code; they execute no benchmark."""
    return []


def run(scale: float = 1.0) -> ExperimentResult:
    return evaluate(plan(cells(scale)), scale)


def evaluate(runs, scale: float = 1.0) -> ExperimentResult:
    assembly = compile_source(DIVISION_SOURCE, assembly_name="divbench")
    method = assembly.find_method("DivBench", "Main")

    result = ExperimentResult(
        experiment="tables5-8",
        title="Tables 5-8: generated code for the integer division benchmark",
        unit="text",
    )

    parts: List[str] = [result.title, "=" * len(result.title), ""]
    parts.append("--- Table 5: C# source ---")
    parts.append(DIVISION_SOURCE.strip())
    parts.append("")
    parts.append("--- Table 5: resulting CIL (single csc-equivalent compile) ---")
    parts.extend(disassemble_body(method))
    parts.append("")

    renders: Dict[str, str] = {}
    stats: Dict[str, Dict[str, int]] = {}
    for profile in MICRO_PROFILES:
        jit = JitCompiler(LoadedAssembly(assembly), profile)
        fn = jit.compile(method)
        renders[profile.name] = render_x86(fn, profile)
        stats[profile.name] = dict(fn.stats)
        table_no = {
            "clr-1.1": "Table 6 (CLR 1.1)",
            "ibm-1.3.1": "Table 6 (IBM JVM)",
            "mono-0.23": "Table 7 (Mono 0.23)",
            "sscli-1.0": "Table 8 (SSCLI 1.0)",
        }.get(profile.name, profile.name)
        parts.append(f"--- {table_no} ---")
        parts.append(renders[profile.name])
        parts.append("")

    checks = [
        ExperimentCheck(
            "CLR stages the constant divisor through a temporary "
            "('does something weird', Table 6)",
            stats.get("clr-1.1", {}).get("const_div_staged", 0) >= 1
            and "idiv    eax, dword ptr [ebp-" in renders.get("clr-1.1", ""),
        ),
        ExperimentCheck(
            "IBM JVM uses registers and constants without the staging quirk",
            stats.get("ibm-1.3.1", {}).get("const_div_staged", 0) == 0,
        ),
        ExperimentCheck(
            "SSCLI emulates cdq with loads and shifts (Table 8)",
            "sar     edx, 0x1f" in renders.get("sscli-1.0", ""),
        ),
        ExperimentCheck(
            "Mono/SSCLI keep variables in frame slots; the code is 'very "
            "close to the actual CIL'",
            renders.get("mono-0.23", "").count("[ebp-")
            > renders.get("clr-1.1", "").count("[ebp-")
            and renders.get("sscli-1.0", "").count("[ebp-")
            >= renders.get("mono-0.23", "").count("[ebp-"),
        ),
        ExperimentCheck(
            "commercial JITs enregister; SSCLI enregisters nothing",
            stats.get("clr-1.1", {}).get("enregistered", 0) > 0
            and stats.get("ibm-1.3.1", {}).get("enregistered", 0) > 0
            and stats.get("sscli-1.0", {}).get("enregistered", 1) == 0,
        ),
    ]
    result.checks.extend(checks)
    parts.append("\n".join(c.render() for c in checks))
    result.text = "\n".join(parts)
    return result
