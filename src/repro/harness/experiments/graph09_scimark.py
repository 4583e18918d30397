"""Graph 9 — SciMark composite MFlops, both memory models, all eight columns.

Column order follows the paper's legend: MS-C++, Java IBM, C# .NET 1.1,
Java BEA JRockit 8.1, J# .NET 1.1, Java Sun 1.4, Mono 0.23, Rotor.
Expectations (sections 4-6): the native baseline leads; CLR 1.1 performs
"as good as the top-of-the-line" IBM JVM and clearly better than BEA/Sun;
Mono trails the commercial VMs; Rotor is far behind; the large model
narrows the JVM's advantage thanks to the CLR's array management.
"""

from __future__ import annotations

from typing import Dict

from ...runtimes import ALL_PROFILES
from ..charts import table
from ..results import ExperimentCheck, ExperimentResult
from ..runner import plan, profile_cells, profile_runs

SCIMARK_CLOCK = 2.2e9  # dual P4 Xeon 2.2 GHz (paper section 4)

#: kernel -> (benchmark, section, small params, large params); large sizes
#: push the working set past the modelled cache threshold
KERNELS = {
    "FFT": ("scimark.fft", "SciMark:FFT",
            {"N": 128, "Reps": 1}, {"N": 2048, "Reps": 1}),
    "SOR": ("scimark.sor", "SciMark:SOR",
            {"N": 24, "Iters": 4}, {"N": 80, "Iters": 2}),
    "MonteCarlo": ("scimark.montecarlo", "SciMark:MonteCarlo",
                   {"Samples": 1500}, {"Samples": 3000}),
    "Sparse": ("scimark.sparse", "SciMark:Sparse",
               {"N": 100, "NZ": 500, "Reps": 4}, {"N": 800, "NZ": 4000, "Reps": 1}),
    "LU": ("scimark.lu", "SciMark:LU",
           {"N": 24, "Reps": 1}, {"N": 56, "Reps": 1}),
}

MODEL_PARAMS = {"small": 2, "large": 3}


def _scale_params(params: Dict[str, int], scale: float) -> Dict[str, int]:
    if scale >= 1.0:
        return dict(params)
    out = {}
    for key, value in params.items():
        if key in ("Reps", "Iters", "Samples"):
            out[key] = max(1, int(value * scale)) if key != "Samples" else max(200, int(value * scale))
        else:
            out[key] = value
    return out


def kernel_cells(model: str, scale: float = 1.0) -> Dict[str, list]:
    """kernel -> its cells on every profile for the given memory model."""
    index = MODEL_PARAMS[model]
    return {
        kernel: profile_cells(spec[0], _scale_params(spec[index], scale),
                              ALL_PROFILES, SCIMARK_CLOCK)
        for kernel, spec in KERNELS.items()
    }


def kernel_mflops(runs, model: str, scale: float = 1.0) -> Dict[str, Dict[str, float]]:
    """kernel -> profile -> MFlops for the given memory model, read from
    planned ``runs`` (see :func:`repro.harness.runner.plan`)."""
    return {
        kernel: {
            name: r.section(KERNELS[kernel][1]).mflops
            for name, r in profile_runs(runs, group).items()
        }
        for kernel, group in kernel_cells(model, scale).items()
    }


def composite(per_kernel: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """SciMark composite = arithmetic mean of the five kernel MFlops."""
    profiles = next(iter(per_kernel.values())).keys()
    return {
        p: sum(per_kernel[k][p] for k in per_kernel) / len(per_kernel)
        for p in profiles
    }


def cells(scale: float = 1.0):
    return [cell for model in MODEL_PARAMS
            for group in kernel_cells(model, scale).values() for cell in group]


def run(scale: float = 1.0) -> ExperimentResult:
    return evaluate(plan(cells(scale)), scale)


def evaluate(runs, scale: float = 1.0) -> ExperimentResult:
    small = composite(kernel_mflops(runs, "small", scale))
    large = composite(kernel_mflops(runs, "large", scale))

    result = ExperimentResult(
        experiment="graph09",
        title="Graph 9: SciMark composite MFlops, small and large memory models",
        unit="MFlops",
    )
    result.series["small memory model"] = small
    result.series["large memory model"] = large

    checks = [
        (
            "native C is the fastest column (paper Graph 9)",
            small["native-c"] == max(small.values()),
            f"native={small['native-c']:.1f}",
        ),
        (
            "CLR 1.1 performs as well as the IBM JVM (within 30%)",
            0.7 < small["clr-1.1"] / small["ibm-1.3.1"] < 1.45,
            f"clr={small['clr-1.1']:.1f} ibm={small['ibm-1.3.1']:.1f}",
        ),
        (
            "CLR 1.1 significantly better than BEA and Sun JVMs",
            small["clr-1.1"] > small["jrockit-8.1"] and small["clr-1.1"] > small["sun-1.4"],
            "",
        ),
        (
            "J# trails C# on the same VM (library shims)",
            small["jsharp-1.1"] < small["clr-1.1"],
            "",
        ),
        (
            "Mono trails the commercial VMs; Rotor is last",
            small["mono-0.23"] < min(small["clr-1.1"], small["ibm-1.3.1"])
            and small["sscli-1.0"] == min(small.values()),
            "",
        ),
        (
            "large model narrows the JVM's edge (CLR/IBM ratio improves)",
            large["clr-1.1"] / large["ibm-1.3.1"] > small["clr-1.1"] / small["ibm-1.3.1"],
            f"small={small['clr-1.1'] / small['ibm-1.3.1']:.3f} large={large['clr-1.1'] / large['ibm-1.3.1']:.3f}",
        ),
    ]
    for d, p, detail in checks:
        result.checks.append(ExperimentCheck(d, bool(p), detail))

    order = [p.name for p in ALL_PROFILES]
    result.render_text(order, table(
        {"small": small, "large": large}, columns=order, row_header="model"
    ))
    return result
