"""Graphs 1-2 — integer arithmetic (add / multiply / divide), four VMs.

Paper expectations (section 5): "some integer operations in the CLR will
perform (addition and division) slower but others (e.g. multiplication)
will run faster, when compared to the JVM"; Mono roughly half the CLR;
SSCLI far behind.
"""

from __future__ import annotations

from ...runtimes import MICRO_PROFILES
from ..results import ExperimentCheck, ExperimentResult
from ..runner import plan, profile_cells, section_series

SECTIONS = (
    "Arith:Add:Int", "Arith:Mul:Int", "Arith:Div:Int",
    "Arith:Add:Long", "Arith:Mul:Long", "Arith:Div:Long",
)

MICRO_CLOCK = 2.8e9  # P4 Xeon 2.8 GHz (paper section 4)


def cells(scale: float = 1.0):
    reps = max(200, int(6000 * scale))
    return profile_cells("micro.arith", {"Reps": reps}, MICRO_PROFILES, MICRO_CLOCK)


def run(scale: float = 1.0) -> ExperimentResult:
    return evaluate(plan(cells(scale)), scale)


def evaluate(runs, scale: float = 1.0) -> ExperimentResult:
    result = ExperimentResult(
        experiment="graph01-02",
        title="Graphs 1-2: Integer arithmetic (ops/sec)",
        unit="ops/sec",
    )
    result.series.update(section_series(runs, cells(scale), SECTIONS))

    def value(section, profile):
        return result.series[section][profile]

    checks = [
        (
            "CLR multiplication faster than IBM JVM (paper sec. 5)",
            value("Arith:Mul:Int", "clr-1.1") > value("Arith:Mul:Int", "ibm-1.3.1"),
            f"clr={value('Arith:Mul:Int', 'clr-1.1'):.3e} ibm={value('Arith:Mul:Int', 'ibm-1.3.1'):.3e}",
        ),
        (
            "CLR addition slower than IBM JVM",
            value("Arith:Add:Int", "clr-1.1") < value("Arith:Add:Int", "ibm-1.3.1"),
            f"clr={value('Arith:Add:Int', 'clr-1.1'):.3e} ibm={value('Arith:Add:Int', 'ibm-1.3.1'):.3e}",
        ),
        (
            "CLR division slower than IBM JVM",
            value("Arith:Div:Int", "clr-1.1") < value("Arith:Div:Int", "ibm-1.3.1"),
            "",
        ),
        (
            "Mono roughly half of CLR on addition (0.3x-0.8x)",
            0.3 < value("Arith:Add:Int", "mono-0.23") / value("Arith:Add:Int", "clr-1.1") < 0.8,
            f"ratio={value('Arith:Add:Int', 'mono-0.23') / value('Arith:Add:Int', 'clr-1.1'):.2f}",
        ),
        (
            "SSCLI slowest on every integer op",
            all(
                value(s, "sscli-1.0") <= min(v for p, v in result.series[s].items() if p != "sscli-1.0")
                for s in SECTIONS
            ),
            "",
        ),
        (
            "SSCLI 3x-12x behind CLR on addition (paper: 5-10x overall)",
            3.0 < value("Arith:Add:Int", "clr-1.1") / value("Arith:Add:Int", "sscli-1.0") < 12.0,
            f"ratio={value('Arith:Add:Int', 'clr-1.1') / value('Arith:Add:Int', 'sscli-1.0'):.2f}",
        ),
    ]
    for description, passed, detail in checks:
        result.checks.append(ExperimentCheck(description, bool(passed), detail))

    result.render_text([p.name for p in MICRO_PROFILES])
    return result
