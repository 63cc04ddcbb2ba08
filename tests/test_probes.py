import types

import pytest

import probes


@pytest.fixture(autouse=True)
def small_runs(monkeypatch):
    for key, value in dict(TIMED_RUNS=1, FAULT_CELLS=(100,), LONG_CELLS=100,
                           LARGE_CELLS=2000, ODD_EVEN_CELLS=100,
                           ORACLE_PROBLEMS=5, FALLBACK_PAIRS=100).items():
        monkeypatch.setattr(probes, key, value)


@pytest.mark.parametrize("name", probes.PROBES)
def test_probe_prints_its_lines(capsys, name):
    assert not probes.PROBES[name]()
    assert capsys.readouterr().out.strip()


def test_gated_probes_count_what_must_read_0(monkeypatch, capsys):
    """Every solution is off the float root where the residual never
    changes sign, and each rsir_flux call counts one fallback."""
    monkeypatch.setattr(probes, "residual", lambda p, sol: 1.0)
    off = probes.oracle()
    assert off > 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        f"{off} non-vacuum seeded problems")
    monkeypatch.setattr(probes.euler, "rsir_flux",
                        lambda *args: types.SimpleNamespace(n_fallback=1))
    assert probes.fallbacks() == 3
