import json

from powdom import catalog
from powdom.algebra import CheckOutcome
from powdom.report import Report
from powdom.verify import SUITE, SuiteConfig, run_suite


def test_reduced_catalog_all_pass():
    # a smaller catalog and fewer trials still give an all-green suite
    cfg = SuiteConfig(seed=42, trials=400, catalog_max=3)
    report = run_suite(cfg, "verify-suite --catalog-max 3")
    assert report.passed
    data = json.loads(report.to_json())
    assert data["verdict"] == "pass"
    assert data["config"]["catalog_max"] == 3


def test_corrupted_builtin_is_caught(monkeypatch):
    # swapping the angelic join for a meet must trip the powerdomain checks
    import powdom.verify as verify_mod

    original = catalog.builtin_algebras

    def corrupted():
        algs = original()
        algs["2_ang"] = catalog.FinAlgebra(
            "2_ang",
            catalog.TWO,
            algs["2_ang"].signature,
            {
                "join": {(i, j): min(i, j) for i in (0, 1) for j in (0, 1)},
                "zero": {(): 0},
            },
        )
        return algs

    monkeypatch.setattr(verify_mod.catalog, "builtin_algebras", corrupted)
    cfg = SuiteConfig(seed=42, trials=50, catalog_max=2)
    checks = verify_mod.check_powerdomains(cfg)
    failed = [c for c in checks if not c.passed]
    assert failed
    assert any(c.witness for c in failed)


def test_report_records_are_ordered_and_named():
    cfg = SuiteConfig(seed=42, trials=50, catalog_max=2)
    report = run_suite(cfg)
    names = [c["name"] for c in report.checks]
    assert names == sorted(names, key=names.index)  # stable order
    assert len(names) == len(set(names))


def test_report_verdict_aggregation():
    report = Report("demo", {"seed": 1})
    report.add(CheckOutcome("a", True))
    assert report.passed
    report.add(CheckOutcome("b", False, witness={"x": 1}))
    assert not report.passed
    data = json.loads(report.to_json())
    assert data["verdict"] == "fail"


def test_suite_sections_are_registered():
    assert [name for name, _ in SUITE] == [
        "extnum",
        "poset",
        "funcspace",
        "algebra",
        "monad",
        "roundtrip",
        "monad-laws",
        "powerdomain",
        "valuation",
        "mixed",
    ]


def test_mixed_functionals_draw_distinct_streams(monkeypatch):
    # every catalog envelope of every poset gets its own seed
    import powdom.verify as verify_mod

    seeds = []

    def recording(phi, side, trials, seed, size_guard):
        seeds.append(seed)
        return Report("stub", {})

    monkeypatch.setattr(verify_mod, "check_linear_side", recording)
    cfg = SuiteConfig(seed=42, trials=50, catalog_max=2)
    checks = verify_mod.check_mixed(cfg)
    assert all(c.passed for c in checks)
    expected = sum(
        len(catalog.catalog_subfns(p, cap=6)) + len(catalog.catalog_supfns(p, cap=6))
        for p in cfg.posets().values()
    )
    assert len(seeds) == expected
    assert len(set(seeds)) == len(seeds)
