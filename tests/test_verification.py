"""The verify suite outside the quick gate, and the records its checks return."""

from gevreykit.verification import check_extended_probes


def test_extended_probes_pass():
    result = check_extended_probes()
    assert result.name == "extended_probes"
    assert result.passed is True, result.detail


def test_every_quick_check_passes_a_python_bool(quick_suite):
    assert [type(r.passed) for r in quick_suite] == [bool] * len(quick_suite)
