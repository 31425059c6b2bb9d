"""Names, units and directions of the benchmark's metrics.

``BENCHMARK.json`` lists the same metrics; ``test_perfbench_oracles``
checks that the two agree.
"""

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("job_p50_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

LAYERS = (
    "extnum",
    "sampling",
    "poset",
    "funcspace",
    "algebra",
    "monad",
    "powerdomain",
    "catalog",
    "defs",
    "report",
    "verify",
    "cli",
)

# verify-suite sections, in verify.SUITE order
SECTIONS = (
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
)

PER_LAYER = (
    ("extnum.ops", "count", "lower"),
    ("sampling.draws", "count", "lower"),
    ("sampling.streams", "count", "lower"),
    ("poset.builds", "count", "lower"),
    ("poset.covers_calls", "count", "lower"),
    ("funcspace.enumerations", "count", "lower"),
    ("funcspace.maps_built", "count", "lower"),
    ("algebra.lifts", "count", "lower"),
    ("algebra.lift_entries", "count", "lower"),
    ("algebra.build_s", "s", "lower"),
    ("algebra.morphism_checks", "count", "lower"),
    ("algebra.interchange_checks", "count", "lower"),
    ("algebra.closure_s", "s", "lower"),
    ("monad.space_builds", "count", "lower"),
    ("monad.space_hits", "count", "higher"),
    ("monad.space_hit_ratio", "ratio", "higher"),
    ("monad.family_s", "s", "lower"),
    ("monad.kleisli_lifts", "count", "lower"),
    ("monad.transformers_built", "count", "lower"),
    ("powerdomain.predicates_built", "count", "lower"),
    ("powerdomain.valuation_evals", "count", "lower"),
    ("powerdomain.law_checks", "count", "lower"),
    ("defs.load_s", "s", "lower"),
    ("defs.definitions", "count", "lower"),
    ("report.serialize_s", "s", "lower"),
    ("report.bytes", "B", "lower"),
    ("cli.commands", "count", "lower"),
) + tuple(
    (f"{layer}.self_s", "s", "lower") for layer in LAYERS
) + tuple(
    (f"verify.{section}_s", "s", "lower") for section in SECTIONS
) + (
    ("trace.overhead_s", "s", "lower"),
)
