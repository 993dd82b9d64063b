import pytest

from grothlab.verify import SUITES, _route_instances, census_scale, maximal_suite, run_suite


def test_census_scale_env(monkeypatch):
    monkeypatch.delenv("GROTHLAB_CENSUS_SCALE", raising=False)
    assert census_scale() == "small"
    monkeypatch.setenv("GROTHLAB_CENSUS_SCALE", "full")
    assert census_scale() == "full"
    monkeypatch.setenv("GROTHLAB_CENSUS_SCALE", "huge")
    with pytest.raises(ValueError):
        census_scale()


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_run_suite_all_covers_every_suite():
    counts = {name: len(suite("small")) for name, suite in SUITES.items()}
    assert len(run_suite("all", "small")) == sum(counts.values())


def test_maximal_suite_names_are_unique():
    results = maximal_suite("small")
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    assert all(r.passed for r in results)


def test_full_route_instances_strictly_contain_small():
    small = set(_route_instances("small"))
    full = set(_route_instances("full"))
    assert small < full
    assert {(n, t_cap) for _, _, n, t_cap in full - small} == {(4, 2), (3, 3)}
