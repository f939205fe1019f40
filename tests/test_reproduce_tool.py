"""The one-command reproduction driver."""

from repro.tools import reproduce


def test_quick_reproduction_report(quick_results):
    text, ok = reproduce.render_report(quick_results)
    assert ok
    # Every artifact section is present.
    for heading in (
        "Table I —", "Table IV —", "Table II —", "Table III —",
        "Figure 1 —", "Figure 2 —", "Figure 3 —", "Figure 4 —",
        "§IV-F —", "§V-5 —", "Extension — energy efficiency",
    ):
        assert heading in text, heading
    assert "ALL SHAPE CLAIMS HOLD" in text
    assert "FAIL" not in text


def test_main_writes_the_rendered_report(tmp_path, monkeypatch, quick_results):
    calls = []

    def run_experiments(full_scale, quick, log):
        calls.append((full_scale, quick))
        return quick_results

    monkeypatch.setattr(reproduce, "run_experiments", run_experiments)
    out = tmp_path / "report.md"
    assert reproduce.main(["--quick", "--out", str(out)]) == 0
    assert reproduce.main(["--full-scale", "--out", str(out)]) == 0
    assert calls == [(False, True), (True, False)]
    assert out.read_text() == reproduce.render_report(quick_results)[0]
