"""Graphs 10-11 — SciMark per-kernel results relative to C performance,
small (Graph 10) and large (Graph 11) memory models.

The paper plots each VM's kernel MFlops with the native C bar as the
reference.  Expectations: the C MonteCarlo column is anomalously high
(section 5: the C version has no locking primitives, "the comparison does
not yield a valid result"); matrix-heavy kernels favour the CLR while
integer-leaning ones favour the JVM; the ladder CLR/IBM >> Sun/BEA >
Mono >> Rotor holds per kernel.
"""

from __future__ import annotations

from ...runtimes import ALL_PROFILES
from ..charts import table
from ..results import ExperimentCheck, ExperimentResult
from ..runner import plan
from .graph09_scimark import MODEL_PARAMS, kernel_cells, kernel_mflops

#: the memory models this module renders, in order: Graph 10, Graph 11
MODELS = tuple(MODEL_PARAMS)


def cells(scale: float = 1.0, model: str = "small"):
    return [cell for group in kernel_cells(model, scale).values() for cell in group]


def run(scale: float = 1.0, model: str = "small") -> ExperimentResult:
    return evaluate(plan(cells(scale, model)), scale, model)


def evaluate(runs, scale: float = 1.0, model: str = "small") -> ExperimentResult:
    per_kernel = kernel_mflops(runs, model, scale)

    graph = "Graph 10" if model == "small" else "Graph 11"
    result = ExperimentResult(
        experiment="graph10-11",
        title=f"{graph}: SciMark kernels, {model} memory model (MFlops; C = native reference)",
        unit="MFlops",
    )
    result.series.update(per_kernel)

    v = lambda k, p: per_kernel[k][p]
    # relative-to-C view like the paper's y-axis
    rel = {
        k: {p: v(k, p) / v(k, "native-c") for p in per_kernel[k]}
        for k in per_kernel
    }
    result.notes.append("relative-to-C values: " + repr({
        k: {p: round(x, 3) for p, x in per_profile.items()}
        for k, per_profile in rel.items()
    }))

    mc_gap = {p: rel["MonteCarlo"][p] for p in rel["MonteCarlo"] if p != "native-c"}
    other_gap = {p: rel["FFT"][p] for p in rel["FFT"] if p != "native-c"}
    result.checks.append(ExperimentCheck(
        "C MonteCarlo anomalously fast: every VM further behind C on MC than on FFT",
        all(mc_gap[p] < other_gap[p] for p in mc_gap),
        f"best VM reaches {max(mc_gap.values()):.2f}x of C on MC vs {max(other_gap.values()):.2f}x on FFT",
    ))
    result.checks.append(ExperimentCheck(
        "Rotor last on every kernel",
        all(v(k, "sscli-1.0") == min(per_kernel[k].values()) for k in per_kernel),
    ))
    result.checks.append(ExperimentCheck(
        "CLR and IBM are the two leading VMs on most kernels",
        sum(
            1 for k in per_kernel
            if set(sorted((p for p in per_kernel[k] if p != "native-c"),
                          key=lambda p: per_kernel[k][p], reverse=True)[:2])
            <= {"clr-1.1", "ibm-1.3.1", "jrockit-8.1"}
        ) >= 4,
    ))

    order = [p.name for p in ALL_PROFILES]
    result.render_text(order, table(per_kernel, columns=order, row_header="kernel"))
    return result
