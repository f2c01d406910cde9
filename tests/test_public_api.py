"""Public API surface: the names the README documents must exist."""

import repro


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_flow_minimal():
    """The shortest end-to-end use: chip -> executor -> Vmin search."""
    chip = repro.build_reference_chips(seed=1)[repro.ProcessCorner.TTT]
    executor = repro.CampaignExecutor(chip, seed=1)
    search = repro.VminSearch(executor, repetitions=3)
    result = search.search(repro.spec_suite()[0],
                           cores=(chip.strongest_core(),))
    assert 850.0 < result.safe_vmin_mv < 980.0


def test_experiment_entry_points_importable():
    from repro.experiments import (
        run_figure4, run_figure5, run_figure6, run_figure7,
        run_figure8a, run_figure8b, run_figure9, run_stencil_study,
        run_table1,
    )
    entry_points = (run_figure4, run_figure5, run_figure6, run_figure7,
                    run_figure8a, run_figure8b, run_figure9,
                    run_stencil_study, run_table1)
    assert all(callable(entry_point) for entry_point in entry_points)


def test_subpackage_docstrings_present():
    import repro.core
    import repro.dram
    import repro.pdn
    import repro.soc
    import repro.thermal
    import repro.viruses
    import repro.workloads
    for module in (repro, repro.core, repro.dram, repro.pdn, repro.soc,
                   repro.thermal, repro.viruses, repro.workloads):
        assert module.__doc__ and len(module.__doc__) > 50
