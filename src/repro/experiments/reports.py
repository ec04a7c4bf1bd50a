"""Regeneration of every table and figure in the paper's evaluation.

Each ``table*``/``fig*`` function returns the underlying data structure
*and* a rendered text block, so the benchmark harness can both assert on
the numbers and print the same rows/series the paper reports.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis import metrics as M
from repro.analysis.metrics import group_totals, render_metric_tree
from repro.cube import CubeProfile
from repro.experiments.workflow import run_experiment
from repro.measure.config import MODE_LABELS, MODES, NOISY_MODES, TSC
from repro.scoring import jaccard_metric_callpath, min_pairwise_jaccard
from repro.util.tables import format_grouped_bars, format_table

__all__ = [
    "table1_overheads",
    "table2_tealeaf",
    "fig1_metric_tree",
    "fig2_minife_init",
    "fig3_jaccard_minife_lulesh",
    "fig4_jaccard_tealeaf",
    "fig5_minife_comp",
    "fig6_minife_waitnxn",
    "fig7_minife2_paradigms",
    "fig8_lulesh1_paradigms",
    "fig9_lulesh1_comp_and_delay",
    "callpath_shares",
]


# ---------------------------------------------------------------------------
# call-path aggregation helpers
# ---------------------------------------------------------------------------


def callpath_shares(
    profile: CubeProfile, metric: str, buckets: Sequence[str], other: str = "other"
) -> Dict[str, float]:
    """%M of ``metric`` aggregated into named buckets.

    A call path contributes to the first bucket name appearing anywhere in
    it -- the aggregation an analyst performs when reading the Cube tree
    at the granularity of the paper's bar charts.
    """
    shares = profile.metric_selection_percent(metric)
    agg: Counter = Counter()
    for path, value in shares.items():
        key = next((b for b in buckets if b in path), other)
        agg[key] += value
    return {b: agg.get(b, 0.0) for b in list(buckets) + [other]}


MINIFE_COMP_BUCKETS = (
    "generate_matrix_structure",
    "assemble_FE_data",
    "make_local_matrix",
    "matvec",
    "dot",
    "waxpby",
)
MINIFE_WAIT_BUCKETS = ("generate_matrix_structure", "make_local_matrix", "dot")
LULESH_BUCKETS = (
    "CalcForceForNodes",
    "ApplyMaterialPropertiesForElems",
    "CalcLagrangeElements",
    "CalcQForElems",
    "CalcAccelerationForNodes",
    "CalcTimeConstraintsForElems",
)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def table1_overheads(seed: int = 0) -> Tuple[dict, str]:
    """Table I: measurement overheads per mode for the selected configs."""
    minife2 = run_experiment("MiniFE-2", seed)
    lulesh1 = run_experiment("LULESH-1", seed)
    tealeaf2 = run_experiment("TeaLeaf-2", seed)
    data = {}
    rows = []
    for mode in MODES:
        row = {
            "minife2_init": minife2.overhead(mode, "init"),
            "minife2_solve": minife2.overhead(mode, "solve"),
            "minife2_total": minife2.overhead(mode),
            "lulesh1": lulesh1.overhead(mode),
            "tealeaf2": tealeaf2.overhead(mode),
        }
        data[mode] = row
        rows.append(
            [MODE_LABELS[mode]] + [row[k] for k in
             ("minife2_init", "minife2_solve", "minife2_total", "lulesh1", "tealeaf2")]
        )
    text = format_table(
        ["Mode", "MiniFE-2 init", "MiniFE-2 solve", "MiniFE-2 total", "LULESH-1", "TeaLeaf-2"],
        rows,
        title="Table I: measurement overheads / %",
        floatfmt="+.1f",
    )
    return data, text


def table2_tealeaf(seed: int = 0) -> Tuple[dict, str]:
    """Table II: TeaLeaf run times and tsc overheads for all configs."""
    data = {}
    rows = []
    for n in (1, 2, 3, 4):
        name = f"TeaLeaf-{n}"
        res = run_experiment(name, seed)
        ref = float(np.mean(res.ref_runtimes))
        tsc = float(np.mean(res.runtimes[TSC]))
        ov = res.overhead(TSC)
        spec_ranks = {1: 1, 2: 2, 3: 8, 4: 128}[n]
        data[name] = {"ranks": spec_ranks, "ref": ref, "tsc": tsc, "overhead": ov}
        rows.append([name, spec_ranks, ref, tsc, ov])
    text = format_table(
        ["Name", "Ranks", "Ref / s", "tsc / s", "overhead / %"],
        rows,
        title="Table II: TeaLeaf run times and tsc measurement overheads",
        floatfmt=".2f",
    )
    return data, text


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def fig1_metric_tree() -> Tuple[None, str]:
    """Fig. 1: the metric hierarchy used in the analysis."""
    return None, render_metric_tree()


def fig2_minife_init(seed: int = 0) -> Tuple[dict, str]:
    """Fig. 2: MiniFE-2 matrix-structure-generation (init) run times.

    Individual repetitions plus means per measurement method, against the
    reference band.
    """
    res = run_experiment("MiniFE-2", seed)
    data = {"ref": list(res.ref_phases["init"])}
    for mode in MODES:
        data[MODE_LABELS[mode]] = list(res.phases[mode]["init"])
    rows = [
        [label, float(np.mean(vals)), float(np.min(vals)), float(np.max(vals)), len(vals)]
        for label, vals in data.items()
    ]
    text = format_table(
        ["Method", "mean / s", "min / s", "max / s", "reps"],
        rows,
        title="Fig. 2: MiniFE-2 matrix structure generation run time",
        floatfmt=".3f",
    )
    return data, text


def _jaccard_block(names: Sequence[str], seed: int) -> Tuple[dict, str]:
    data: Dict[str, dict] = {}
    for name in names:
        res = run_experiment(name, seed)
        tsc_mean = res.mean_profile(TSC)
        entry = {
            "scores": {
                MODE_LABELS[m]: jaccard_metric_callpath(res.mean_profile(m), tsc_mean)
                for m in MODES if m != TSC
            },
            "min_run_to_run": {
                MODE_LABELS[m]: min_pairwise_jaccard(res.profiles[m]) for m in NOISY_MODES
            },
        }
        data[name] = entry
    bars = {
        name: dict(entry["scores"]) for name, entry in data.items()
    }
    lines = [format_grouped_bars(bars, title="J_(M,C) vs tsc (mean profiles)")]
    rows = [
        [name, entry["min_run_to_run"]["tsc"], entry["min_run_to_run"]["lt_hwctr"]]
        for name, entry in data.items()
    ]
    lines.append("")
    lines.append(format_table(
        ["Experiment", "min J tsc reps", "min J lt_hwctr reps"],
        rows,
        title="Run-to-run similarity floor (deterministic logical modes are 1.0)",
        floatfmt=".3f",
    ))
    return data, "\n".join(lines)


def fig3_jaccard_minife_lulesh(seed: int = 0) -> Tuple[dict, str]:
    """Fig. 3: J_(M,C) similarity to tsc for MiniFE and LULESH."""
    return _jaccard_block(["MiniFE-1", "MiniFE-2", "LULESH-1", "LULESH-2"], seed)


def fig4_jaccard_tealeaf(seed: int = 0) -> Tuple[dict, str]:
    """Fig. 4: J_(M,C) similarity to tsc for the TeaLeaf configurations."""
    return _jaccard_block([f"TeaLeaf-{n}" for n in (1, 2, 3, 4)], seed)


def _share_figure(
    names: Sequence[str], metric: str, buckets: Sequence[str], title: str, seed: int
) -> Tuple[dict, str]:
    data = {}
    blocks = []
    for name in names:
        res = run_experiment(name, seed)
        per_mode = {
            MODE_LABELS[m]: callpath_shares(res.mean_profile(m), metric, buckets)
            for m in MODES
        }
        data[name] = per_mode
        blocks.append(format_grouped_bars(per_mode, title=f"{title} -- {name} (%M)", floatfmt=".1f"))
    return data, "\n\n".join(blocks)


def fig5_minife_comp(seed: int = 0) -> Tuple[dict, str]:
    """Fig. 5: MiniFE call-path contributions to computation time."""
    return _share_figure(
        ["MiniFE-1", "MiniFE-2"], M.COMP, MINIFE_COMP_BUCKETS,
        "Fig. 5: contributions to comp", seed,
    )


def fig6_minife_waitnxn(seed: int = 0) -> Tuple[dict, str]:
    """Fig. 6: MiniFE call-path contributions to all-to-all wait time."""
    return _share_figure(
        ["MiniFE-1", "MiniFE-2"], M.MPI_COLL_WAIT_NXN, MINIFE_WAIT_BUCKETS,
        "Fig. 6: contributions to wait_nxn", seed,
    )


def _paradigm_figure(name: str, title: str, seed: int) -> Tuple[dict, str]:
    res = run_experiment(name, seed)
    data = {MODE_LABELS[m]: group_totals(res.mean_profile(m)) for m in MODES}
    text = format_grouped_bars(data, title=title, floatfmt=".1f")
    return data, text


def fig7_minife2_paradigms(seed: int = 0) -> Tuple[dict, str]:
    """Fig. 7: MiniFE-2 comp/MPI/OpenMP/idle split per mode (%T)."""
    return _paradigm_figure("MiniFE-2", "Fig. 7: MiniFE-2 paradigm split (%T)", seed)


def fig8_lulesh1_paradigms(seed: int = 0) -> Tuple[dict, str]:
    """Fig. 8: LULESH-1 comp/MPI/OpenMP/idle split per mode (%T)."""
    return _paradigm_figure("LULESH-1", "Fig. 8: LULESH-1 paradigm split (%T)", seed)


def fig9_lulesh1_comp_and_delay(seed: int = 0) -> Tuple[dict, str]:
    """Fig. 9: LULESH-1 contributions to comp and to N x N delay costs."""
    res = run_experiment("LULESH-1", seed)
    comp = {
        MODE_LABELS[m]: callpath_shares(res.mean_profile(m), M.COMP, LULESH_BUCKETS)
        for m in MODES
    }
    delay_buckets = LULESH_BUCKETS + ("MPI_Waitall",)
    delay = {
        MODE_LABELS[m]: callpath_shares(res.mean_profile(m), M.DELAY_N2N, delay_buckets)
        for m in MODES
    }
    data = {"comp": comp, "delay_n2n": delay}
    text = (
        format_grouped_bars(comp, title="Fig. 9a: LULESH-1 contributions to comp (%M)", floatfmt=".1f")
        + "\n\n"
        + format_grouped_bars(delay, title="Fig. 9b: LULESH-1 contributions to delay_mpi_collective_n2n (%M)", floatfmt=".1f")
    )
    return data, text
