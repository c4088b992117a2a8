"""Smoke + structure tests for every experiment harness (quick mode).

The benchmarks assert the paper's quantitative shape; these tests assert
the harness *contract*: each module runs in quick mode, returns a
populated :class:`ExperimentResult` with the documented series keys, and
formats cleanly.  Campaigns are shared through the experiments' own
context cache, so the whole file stays fast.
"""

import hashlib
import importlib

import pytest

from repro.experiments.common import ExperimentResult

MODULES = {
    "fig01_scaling_trends": ("Fig. 1", {"swings"}),
    "fig02_margin_frequency": ("Fig. 2", {"margins", "curves"}),
    "fig04_impedance": ("Fig. 4", {"stock", "depleted", "resonance_hz",
                                   "ratio_1mhz"}),
    "fig05_reset_droops": ("Fig. 5(m-r)", {"traces"}),
    "fig06_decap_swings": ("Fig. 6", {"relative_swings"}),
    "fig07_typical_case_cdf": ("Fig. 7", {"cdf_deviations", "cdf_cumulative",
                                          "histogram", "max_droop",
                                          "beyond_typical"}),
    "fig08_margin_sweep": ("Fig. 8", {"sweeps", "model"}),
    "fig09_future_cdf": ("Fig. 9", {"beyond_typical"}),
    "fig10_heatmaps": ("Fig. 10", {"heatmaps"}),
    "fig11_tlb_trace": ("Fig. 11", {"trace", "idle_trace", "overshoots"}),
    "fig12_event_swings": ("Fig. 12", {"swings"}),
    "fig13_event_interference": ("Fig. 13", {"matrix", "events",
                                             "single_core", "max_pair"}),
    "fig14_noise_phases": ("Fig. 14", {"timelines"}),
    "fig15_stall_correlation": ("Fig. 15", {"correlation", "pearson_r"}),
    "fig16_sliding_window": ("Fig. 16", {"experiment", "max_amplification",
                                         "min_amplification"}),
    "fig17_droop_variance": ("Fig. 17", {"single", "specrate", "boxes"}),
    "tab1_specrate_pass": ("Tab. I", {"optima", "passing_by_cost"}),
    "fig18_policy_scatter": ("Fig. 18", {"points", "random_points",
                                         "random_mean"}),
    "fig19_pass_increase": ("Fig. 19", {"passing", "recovery_costs"}),
}


#: sha256 of each quick ``format_table()`` whose numbers rest on the
#: throttle loops or the resilient-design sweeps.  These are the tables'
#: digests in ``perfbench/digests.json``: a change to one of them fails
#: here, not only in the benchmark's output check.
TABLE_DIGESTS = {
    "ext_throttle":
        "ae590d21fea4c64f37edc6873030f8723c02777e511c6c808e3851ab512516da",
    "fig08_margin_sweep":
        "65ebe9d811482b6aef86f1d742748f8a588774a9e0d1f257e0061a5786aa9e67",
    "fig10_heatmaps":
        "0db57d5d174223f17663e5d3d4c1f9cd533368c91777b2dbaf0604b6599e5b30",
    "tab1_specrate_pass":
        "d2c87774990c103477a5f2cceee5ed54d966a2b552bc4b9775f65f9834764773",
    "fig19_pass_increase":
        "2948aa0e84300edcc61ec441ba3c03fb5c8c76baeff12844b539c78a21418d3a",
}


@pytest.fixture(scope="module")
def results():
    """Run every harness once (quick mode) and cache the outcomes."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"repro.experiments.{name}")
        out[name] = module.run(quick=True)
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_experiment_contract(results, name):
    expected_id, expected_series = MODULES[name]
    result = results[name]
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == expected_id
    assert result.rows, f"{name} produced no rows"
    assert expected_series <= set(result.series), (
        f"{name} missing series: {expected_series - set(result.series)}"
    )
    assert result.notes, f"{name} should carry paper-vs-measured notes"
    # The table renders and mentions the experiment id.
    text = result.format_table()
    assert expected_id in text


@pytest.mark.parametrize("name", sorted(MODULES))
def test_experiment_rows_match_columns(results, name):
    result = results[name]
    if result.columns:
        for row in result.rows:
            assert len(row) == len(result.columns)


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_digest_is_pinned(results, name):
    result = results.get(name) or importlib.import_module(
        f"repro.experiments.{name}"
    ).run(quick=True)
    table = result.format_table()
    assert hashlib.sha256(table.encode("utf-8")).hexdigest() == (
        TABLE_DIGESTS[name]
    ), f"{name}'s quick table changed:\n{table}"


def test_every_paper_figure_has_a_harness():
    """The evaluation section's full figure/table list is covered."""
    covered = {MODULES[m][0] for m in MODULES}
    required = {
        "Fig. 1", "Fig. 2", "Fig. 4", "Fig. 5(m-r)", "Fig. 6", "Fig. 7",
        "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13",
        "Fig. 14", "Fig. 15", "Fig. 16", "Fig. 17", "Tab. I", "Fig. 18",
        "Fig. 19",
    }
    assert required <= covered
