"""Report records: one CheckOutcome shape, and the suite bytes it keeps."""

import hashlib
import json

import pytest

from powdom.algebra import CheckOutcome
from powdom.cli import main

# the README definition example, completed, plus a SubFn at half of mu
DEFS = """
poset P3
elems lo mid hi
le lo mid
le mid hi
end

algebra twojoin on P3
op sup arity 2 tag EQ
op bot arity 0 tag EQ
table sup { (lo,lo)->lo; (lo,mid)->mid; (lo,hi)->hi;
            (mid,lo)->mid; (mid,mid)->mid; (mid,hi)->hi;
            (hi,lo)->hi; (hi,mid)->hi; (hi,hi)->hi }
table bot { () -> lo }
end

algebra rmix on extnn
op add arity 2 tag LE
op max arity 2 tag GE
op scale arity 1 tag EQ
op zero arity 0 tag EQ
builtin add add
builtin max max
builtin scale scale 1/2
builtin zero const 0
end

map u : C2 -> C2 { bot |-> bot; top |-> top }
valuation mu on C2 val { 1/2 @ bot; 1/3 @ top }
subfn phi on A2 sup{ val{ 1 @ a }; val{ 1 @ b } }
supfn psi on A2 inf{ val{ 1 @ a }; val{ 1 @ b } }
predicate f on A2 pred { a -> 1; b -> 2 }

transformer t : C2 -> C2 with 2_ang
at bot { [0,0] -> 0; [0,1] -> 0; [1,1] -> 1 }
at top { [0,0] -> 0; [0,1] -> 1; [1,1] -> 1 }
end

subfn phi_lo on C2 sup{ val{ 1/4 @ bot; 1/6 @ top } }
"""


def oracle_passed(record: dict) -> bool:
    """The recursive scan the report once used: any nested fail record fails."""
    if record.get("verdict") == "fail":
        return False
    for value in record.values():
        if isinstance(value, list):
            if any(isinstance(v, dict) and not oracle_passed(v) for v in value):
                return False
    return True


def walk(records):
    for record in records:
        yield record
        yield from walk(record.get("checks", []))


@pytest.fixture
def defs_path(tmp_path):
    path = tmp_path / "readme.defs"
    path.write_text(DEFS, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "--entropic", "frame2"], 1),
        (["check", "--relaxed", "rplus_max", "--trials", "500"], 0),
        (["powerdomain", "smyth", "A2"], 0),
        (["valuation", "mu", "--trials", "500"], 0),
        (["valuation", "mu", "--against", "phi_lo", "--trials", "500"], 1),
    ],
)
def test_top_level_verdict_matches_recursive_oracle(argv, code, defs_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["-f", defs_path, "--json", str(out)]) == code
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["verdict"] == ("pass" if oracle_passed({"checks": report["checks"]}) else "fail")
    assert report["verdict"] == ("pass" if code == 0 else "fail")
    for record in walk(report["checks"]):
        assert {"name", "verdict", "mode"} <= set(record)
        if "checks" in record:
            children = [c["verdict"] == "pass" for c in record["checks"]]
            assert children
            assert (record["verdict"] == "pass") == all(children)


def test_leaf_and_composite_records():
    leaf = CheckOutcome("law", False, witness={"x": "1"})
    assert leaf.as_record() == {
        "name": "law", "verdict": "fail", "mode": "exhaustive", "witness": {"x": "1"}
    }
    both = CheckOutcome.composite("both", [CheckOutcome("a", True), leaf], "grid+samples")
    assert not both.passed
    assert both.witnesses() == [leaf]
    record = both.as_record()
    assert record["mode"] == "grid+samples"
    assert [c["name"] for c in record["checks"]] == ["a", "law"]
    assert CheckOutcome.composite("none", [], "exhaustive").passed


def test_suite_report_bytes_are_pinned(tmp_path):
    # a record-shape or sampling change shows up here as a new digest
    out = tmp_path / "suite.json"
    argv = ["verify-suite", "--seed", "42", "--trials", "100", "--catalog-max", "2"]
    assert main(argv + ["--json", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "0e0bcc44d187433f644cbe13b78d0ae0a4b58ff1fde9e3ba746b5d47d2a41af9"
