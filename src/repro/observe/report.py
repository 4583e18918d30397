"""Rendering and serialization for observed runs.

Three artifact kinds:

* ``profile_to_dict`` / ``profile_from_path`` — the JSON cycle-attribution
  profile (methods x categories, opcodes, JIT trace, run metadata);
* ``render_report`` — the human-readable hot-method / category / opcode /
  JIT-decision report;
* ``render_diff`` — rank the categories (and methods) by their
  contribution to the cycle gap between two profiles: the paper's
  section-4 "which component explains the 2x?" analysis as a command.

Reports work from the serialized dict, so ``repro prof diff`` accepts both
live runs and saved ``*.profile.json`` artifacts interchangeably.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .recorder import CATEGORIES, Observer

SCHEMA = "repro.observe/1"


# --------------------------------------------------------------- serialize


def profile_to_dict(observer: Observer, benchmark: Optional[str] = None) -> dict:
    machine = observer.machine
    if machine is None:
        raise ValueError("observer was never attached to a machine")
    rec = observer.cycles
    sections = {
        name: {"cycles": s.total_cycles, "ops": s.ops, "flops": s.flops}
        for name, s in machine.bench.sections.items()
    }
    return {
        "schema": SCHEMA,
        "benchmark": benchmark or observer.benchmark,
        "runtime": machine.profile.name,
        "clock_hz": machine.profile.clock_hz,
        "total_cycles": machine.cycles,
        "instructions": machine.instructions,
        "attributed_cycles": rec.attributed_cycles(),
        "categories": rec.categories(),
        "methods": rec.methods(),
        "opcodes": rec.opcodes(),
        "sections": sections,
        "gc_collections": machine.gc_collections,
        "allocated_bytes": machine.allocated_bytes,
        "jit": observer.jit.to_list(),
        "timeline_events": len(observer.timeline.events),
        "timeline_dropped": observer.timeline.dropped,
    }


def profile_from_path(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} profile (schema={data.get('schema')!r})")
    return data


def coverage(profile: dict) -> float:
    """Attributed share of total cycles, in [0, 1]."""
    total = profile["total_cycles"]
    return 1.0 if total <= 0 else profile["attributed_cycles"] / total


# ------------------------------------------------------------------ report


def _fmt(n: float) -> str:
    return f"{n:,.0f}"


def _pct(part: float, whole: float) -> str:
    return "   -" if whole <= 0 else f"{100 * part / whole:4.1f}%"


def _header(profile: dict) -> List[str]:
    clock = profile["clock_hz"]
    total = profile["total_cycles"]
    bench = profile.get("benchmark") or "<direct run>"
    return [
        f"cycle-attribution profile: {bench} @ {profile['runtime']}",
        f"  total {_fmt(total)} cycles ({total / clock:.6f} s at {clock / 1e9:.1f} GHz), "
        f"{_fmt(profile['instructions'])} MIR instructions",
        f"  attributed {_fmt(profile['attributed_cycles'])} cycles "
        f"({100 * coverage(profile):.2f}% of total)",
    ]


def category_table(profile: dict) -> List[str]:
    total = profile["total_cycles"]
    cats = profile["categories"]
    lines = [f"  {'category':<16} {'cycles':>16} {'share':>6}"]
    for cat in sorted(cats, key=cats.get, reverse=True):
        lines.append(f"  {cat:<16} {_fmt(cats[cat]):>16} {_pct(cats[cat], total):>6}")
    return lines


def hot_method_table(profile: dict, top: int = 12) -> List[str]:
    total = profile["total_cycles"]
    methods = profile["methods"]
    ranked = sorted(methods.items(), key=lambda kv: kv[1]["cycles"], reverse=True)
    lines = [f"  {'method':<40} {'cycles':>16} {'share':>6}  top categories"]
    for name, m in ranked[:top]:
        cats = sorted(m["categories"].items(), key=lambda kv: kv[1], reverse=True)
        tops = ", ".join(f"{c} {_pct(v, m['cycles']).strip()}" for c, v in cats[:3])
        lines.append(
            f"  {name:<40} {_fmt(m['cycles']):>16} {_pct(m['cycles'], total):>6}  {tops}"
        )
    if len(ranked) > top:
        rest = sum(m["cycles"] for _n, m in ranked[top:])
        lines.append(f"  {'(other ' + str(len(ranked) - top) + ' methods)':<40} "
                     f"{_fmt(rest):>16} {_pct(rest, total):>6}")
    return lines


def opcode_table(profile: dict, top: int = 12) -> List[str]:
    ops = profile["opcodes"]
    ranked = sorted(ops.items(), key=lambda kv: kv[1]["cycles"], reverse=True)
    lines = [f"  {'opcode':<12} {'executed':>14} {'cycles':>16}"]
    for name, o in ranked[:top]:
        lines.append(f"  {name:<12} {_fmt(o['count']):>14} {_fmt(o['cycles']):>16}")
    return lines


def jit_table(profile: dict, top: int = 8) -> List[str]:
    from .jittrace import MethodCompile, PassRecord, InlineDecision

    lines = []
    mains = [rec for rec in profile["jit"] if not rec["inline_candidate"]]
    for rec in mains[:top]:
        steps = ", ".join(
            f"{p['name']}({p['before']}->{p['after']})" for p in rec["passes"]
        )
        inlined = rec["stats"].get("inlined_calls", 0)
        extra = f"; inlined {inlined} call(s)" if inlined else ""
        lines.append(
            f"  {rec['method']}: {rec['lowered_instrs']} -> {rec['final_instrs']} "
            f"instrs [{steps}]; enregistered {rec['enregistered']}/{rec['n_vregs']}"
            f"{extra}"
        )
    if len(mains) > top:
        lines.append(f"  ... and {len(mains) - top} more methods")
    return lines


def render_report(source, benchmark: Optional[str] = None, top: int = 12) -> str:
    """Full text report from an :class:`Observer` or a profile dict."""
    profile = (
        profile_to_dict(source, benchmark) if isinstance(source, Observer) else source
    )
    lines = _header(profile)
    lines += ["", "by cost category:"] + category_table(profile)
    lines += ["", f"hot methods (self cycles, top {top}):"]
    lines += hot_method_table(profile, top)
    lines += ["", "by MIR opcode (static costs):"] + opcode_table(profile, top)
    if profile["jit"]:
        lines += ["", "JIT compilation trace:"] + jit_table(profile)
    if profile.get("gc_collections"):
        lines += ["", f"explicit GC collections: {profile['gc_collections']}"]
    return "\n".join(lines)


# -------------------------------------------------------------------- diff


def diff_categories(a: dict, b: dict) -> List[dict]:
    """Per-category cycle deltas, ranked by contribution to the total gap."""
    cats = sorted(set(a["categories"]) | set(b["categories"]),
                  key=lambda c: CATEGORIES.index(c) if c in CATEGORIES else 99)
    gap = b["total_cycles"] - a["total_cycles"]
    rows = []
    for cat in cats:
        ca = a["categories"].get(cat, 0)
        cb = b["categories"].get(cat, 0)
        rows.append(
            {
                "category": cat,
                "a_cycles": ca,
                "b_cycles": cb,
                "delta": cb - ca,
                "gap_share": (cb - ca) / gap if gap else 0.0,
            }
        )
    rows.sort(key=lambda r: abs(r["delta"]), reverse=True)
    return rows


def render_diff(a: dict, b: dict, top: int = 10) -> str:
    name_a, name_b = a["runtime"], b["runtime"]
    bench = a.get("benchmark") or b.get("benchmark") or "<direct run>"
    ta, tb = a["total_cycles"], b["total_cycles"]
    ratio = tb / ta if ta else float("inf")
    lines = [
        f"category attribution diff: {bench} — {name_a} vs {name_b}",
        f"  total cycles: {_fmt(ta)} vs {_fmt(tb)}  ({name_b} is {ratio:.2f}x {name_a})",
        "",
        f"  categories ranked by contribution to the {_fmt(tb - ta)}-cycle gap:",
        f"  {'category':<16} {name_a:>16} {name_b:>16} {'delta':>16} {'gap share':>9}",
    ]
    for row in diff_categories(a, b):
        lines.append(
            f"  {row['category']:<16} {_fmt(row['a_cycles']):>16} "
            f"{_fmt(row['b_cycles']):>16} {_fmt(row['delta']):>16} "
            f"{100 * row['gap_share']:8.1f}%"
        )
    # method-level deltas, for drilling into the top category
    methods = sorted(
        set(a["methods"]) | set(b["methods"]),
        key=lambda m: abs(
            b["methods"].get(m, {}).get("cycles", 0)
            - a["methods"].get(m, {}).get("cycles", 0)
        ),
        reverse=True,
    )
    lines += ["", f"  top method deltas:"]
    lines.append(f"  {'method':<40} {name_a:>16} {name_b:>16} {'delta':>16}")
    for m in methods[:top]:
        ma = a["methods"].get(m, {}).get("cycles", 0)
        mb = b["methods"].get(m, {}).get("cycles", 0)
        lines.append(f"  {m:<40} {_fmt(ma):>16} {_fmt(mb):>16} {_fmt(mb - ma):>16}")
    return "\n".join(lines)


def render_diff_markdown(a: dict, b: dict) -> str:
    """The category table as GitHub markdown (for EXPERIMENTS.md)."""
    name_a, name_b = a["runtime"], b["runtime"]
    ta, tb = a["total_cycles"], b["total_cycles"]
    lines = [
        f"| category | {name_a} (cycles) | {name_b} (cycles) | delta | gap share |",
        "|---|---:|---:|---:|---:|",
    ]
    for row in diff_categories(a, b):
        lines.append(
            f"| {row['category']} | {_fmt(row['a_cycles'])} | {_fmt(row['b_cycles'])} "
            f"| {_fmt(row['delta'])} | {100 * row['gap_share']:.1f}% |"
        )
    lines.append(
        f"| **total** | **{_fmt(ta)}** | **{_fmt(tb)}** | **{_fmt(tb - ta)}** | 100% |"
    )
    return "\n".join(lines)
