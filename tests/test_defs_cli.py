import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from powdom import catalog
from powdom.algebra import RatAlgebra
from powdom.cli import build_parser, main
from powdom.defs import Workspace, load_workspace, transformer_literal
from powdom.errors import ParseError, PowdomError, UnknownName
from powdom.extnum import ExtNN
from powdom.monad import (
    FunctionalSpace,
    all_state_transformers,
    functional_space,
    p_transform,
    q_transform,
)

SAMPLE = """
# definitions exercising every statement kind
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
valuation nu on A2 val { 1/2 @ a }
subfn phi on A2 sup{ val{ 1 @ a }; val{ 1 @ b } }
supfn psi on A2 inf{ val{ 1 @ a }; val{ 1 @ b } }
predicate f on A2 pred { a -> 1; b -> 2 }

transformer t : C2 -> C2 with 2_ang
at bot { [0,0] -> 0; [0,1] -> 0; [1,1] -> 1 }
at top { [0,0] -> 0; [0,1] -> 1; [1,1] -> 1 }
end
"""


@pytest.fixture
def sample_path(tmp_path):
    path = tmp_path / "sample.defs"
    path.write_text(SAMPLE, encoding="utf-8")
    return str(path)


class TestParser:
    def test_loads_everything(self, sample_path):
        ws = load_workspace([sample_path])
        assert ws.poset("P3").size == 3
        assert ws.algebra("twojoin").resolve("sup")((0, 2)) == 2
        assert ws.algebra("rmix").resolve("scale")((ExtNN(4),)) is not None
        assert ws.valuation("mu").mass() == ExtNN.parse("5/6")
        assert ws.functional("phi").components
        assert ws.predicates["f"].values[1] == ExtNN(2)
        assert ws.transformer("t").source.labels == ("bot", "top")

    def test_parsed_transformer_is_the_enumerated_one(self, sample_path):
        t = load_workspace([sample_path]).transformer("t")
        space = functional_space(t.source, catalog.builtin_algebras()["2_ang"])
        assert t.space is space
        assert [s for s in all_state_transformers(t.source, space) if s is t]

    def test_scale_builtin_uses_fixed_factor(self, sample_path):
        ws = load_workspace([sample_path])
        # the declared factor realises the op; law checks quantify over the
        # parametric family separately
        assert ws.algebra("rmix").resolve("scale", ExtNN.parse("1/2"))((ExtNN(4),)) == ExtNN(2)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.defs"
        path.write_text("poset X\nelems a b\nle a c\nend\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_workspace([str(path)])
        assert "broken.defs" in str(err.value)

    def test_cycle_reported(self, tmp_path):
        path = tmp_path / "cycle.defs"
        path.write_text("poset X\nelems a b\nle a b\nle b a\nend\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_workspace([str(path)])
        assert "cycle" in str(err.value).lower()

    def test_builtin_names_protected(self, tmp_path):
        path = tmp_path / "clash.defs"
        path.write_text("poset C2\nelems a b\nend\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_workspace([str(path)])
        assert "already defined" in str(err.value)

    def test_unknown_reference(self, tmp_path):
        path = tmp_path / "ref.defs"
        path.write_text("map u : nowhere -> C2 { }\n", encoding="utf-8")
        with pytest.raises(UnknownName):
            load_workspace([str(path)])

    def test_undeclared_realisation_rejected(self, tmp_path):
        path = tmp_path / "typo.defs"
        path.write_text(
            "algebra bad on C2\n"
            "op join arity 2 tag EQ\n"
            "table join { (bot,bot)->bot; (bot,top)->top; (top,bot)->top; (top,top)->top }\n"
            "table typo { () -> bot }\n"
            "end\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_workspace([str(path)])
        assert "typo" in str(err.value)

    def test_non_monotone_map_rejected(self, tmp_path):
        path = tmp_path / "mono.defs"
        path.write_text(
            "map u : C2 -> C2 { bot |-> top; top |-> bot }\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as err:
            load_workspace([str(path)])
        assert "monoton" in str(err.value)

    def test_transformer_roundtrips_via_literal(self, sample_path):
        ws = load_workspace([sample_path])
        t = ws.transformer("t")
        literal = transformer_literal("t2", t, "C2", "C2", "2_ang")
        ws2 = Workspace()
        ws2.load_text("<inline>", literal)
        assert ws2.transformer("t2") == t

    def test_pq_on_parsed_transformer(self, sample_path):
        ws = load_workspace([sample_path])
        t = ws.transformer("t")
        assert q_transform(p_transform(t)) == t


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "powdom.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


class TestCli:
    def test_check_entropic_pass(self):
        proc = run_cli(["check", "--entropic", "2_ang"])
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["verdict"] == "pass"

    def test_check_non_entropic_exit_one(self):
        proc = run_cli(["check", "--entropic", "lattice2"])
        assert proc.returncode == 1
        data = json.loads(proc.stdout)
        assert data["verdict"] == "fail"

    def test_unknown_name_exit_two(self):
        proc = run_cli(["check", "--entropic", "nosuch"])
        assert proc.returncode == 2

    def test_usage_error_exit_two(self):
        proc = run_cli(["check", "2_ang"])  # missing mode flag
        assert proc.returncode == 2

    def test_size_guard_exit_three(self):
        proc = run_cli(["homs", "grid2", "2_ang", "--size-guard", "10"])
        assert proc.returncode == 3

    def test_transform_refuses_source_spaces_past_the_size_guard(self, tmp_path):
        # [[one -> 2] -> 2] fits a guard of 8, [[A2 -> 2] -> 2] does not
        defs = tmp_path / "into_one.defs"
        defs.write_text(
            "transformer t : A2 -> one with 2_ang\n"
            "at a { [0] -> 0; [1] -> 1 }\n"
            "at b { [0] -> 0; [1] -> 1 }\n"
            "end\n",
            encoding="utf-8",
        )
        args = ["transform", "p2q", "t", "-f", str(defs), "--size-guard"]
        assert run_cli(args + ["100"]).returncode == 0
        assert run_cli(args + ["8"]).returncode == 3

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.defs"
        bad.write_text("poset X\nelems a a\nend\n", encoding="utf-8")
        proc = run_cli(["check", "--entropic", "2_ang", "-f", str(bad)])
        assert proc.returncode == 2
        assert "bad.defs" in proc.stderr

    def test_env_seed_override(self):
        # the seed comes from the command line only; no environment variable
        # changes a report
        argv = ["check", "--relaxed", "rplus_max", "--trials", "50", "--seed", "7"]
        plain = run_cli(argv)
        proc = run_cli(argv, env_extra={"POWDOM_SEED": "99"})
        assert proc.returncode == plain.returncode == 0
        assert json.loads(proc.stdout)["config"]["seed"] == 7
        assert proc.stdout == plain.stdout
        assert run_cli(argv, env_extra={"POWDOM_SEED": "x"}).stdout == plain.stdout

    def test_powerdomain_hoare(self, tmp_path):
        dot = tmp_path / "h.dot"
        proc = run_cli(["powerdomain", "hoare", "C2", "--dot", str(dot)])
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["powerdomain"]["count"] == 3
        assert dot.read_text().startswith('digraph "hoare_C2"')

    def test_powerdomain_smyth(self):
        proc = run_cli(["powerdomain", "smyth", "A2"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["powerdomain"]["count"] == 4

    def test_powerdomain_valuations_linearity_is_exhaustive(self):
        # the linearity record runs over the catalog valuations, the up-set
        # characteristics and the scalar grid; it draws nothing
        proc = run_cli(["powerdomain", "valuations", "C2"])
        assert proc.returncode == 0
        records = {r["name"]: r for r in json.loads(proc.stdout)["checks"]}
        record = records["valuations:simple-valuations-linear"]
        assert record["verdict"] == "pass"
        assert record["mode"] == "exhaustive"

    def test_powerdomain_sober(self):
        proc = run_cli(["powerdomain", "sober", "C2"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 2

    def test_families(self):
        for cmd, key in (("homs", "homs"), ("free", "free"), ("relaxed", "relaxed")):
            proc = run_cli([cmd, "A2", "2_ang"])
            assert proc.returncode == 0
            data = json.loads(proc.stdout)
            assert data[key]["count"] == 4
        data = json.loads(run_cli(["free", "A2", "2_ang"]).stdout)
        assert data["comparison"]["equal"] is True

    def test_transform_roundtrip_via_files(self, tmp_path, sample_path):
        p2q = run_cli(["transform", "p2q", "t", "-f", sample_path])
        assert p2q.returncode == 0
        data = json.loads(p2q.stdout)
        assert data["classification"] == "hom"
        back_file = tmp_path / "back.defs"
        back_file.write_text(data["result"], encoding="utf-8")
        q2p = run_cli(["transform", "q2p", "t_p", "-f", str(back_file)])
        assert q2p.returncode == 0
        out = json.loads(q2p.stdout)["result"]
        lines = [l for l in out.splitlines() if l.startswith("at ")]
        original = [
            "at bot { [0,0] -> 0; [0,1] -> 0; [1,1] -> 1 }",
            "at top { [0,0] -> 0; [0,1] -> 1; [1,1] -> 1 }",
        ]
        assert lines == original

    def test_transform_classifies_relaxed(self, tmp_path):
        # over an oplax-tagged join, the detector that fires only on the
        # constant-1 predicate is a relaxed morphism but not a homomorphism
        defs = tmp_path / "relaxed.defs"
        defs.write_text(
            "poset B2\n"
            "elems 0 1\n"
            "le 0 1\n"
            "end\n"
            "algebra lax_join on B2\n"
            "op join arity 2 tag GE\n"
            "op zero arity 0 tag EQ\n"
            "table join { (0,0)->0; (0,1)->1; (1,0)->1; (1,1)->1 }\n"
            "table zero { () -> 0 }\n"
            "end\n"
            "transformer tr : A2 -> A2 with lax_join\n"
            "at a { [0,0] -> 0; [0,1] -> 0; [1,0] -> 0; [1,1] -> 1 }\n"
            "at b { [0,0] -> 0; [0,1] -> 0; [1,0] -> 0; [1,1] -> 1 }\n"
            "end\n",
            encoding="utf-8",
        )
        proc = run_cli(["transform", "p2q", "tr", "-f", str(defs)])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classification"] == "relaxed"

    def test_valuation_command(self, sample_path):
        proc = run_cli(["valuation", "mu", "-f", sample_path, "--trials", "100"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "pass"

    def test_valuation_against(self, sample_path):
        proc = run_cli(
            ["valuation", "nu", "--against", "phi", "-f", sample_path, "--trials", "100"]
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["against"] == "phi"

    def test_export_dot(self, tmp_path):
        dot = tmp_path / "c2.dot"
        proc = run_cli(["export-dot", "C2", "--dot", str(dot)])
        assert proc.returncode == 0
        assert '"bot" -> "top"' in dot.read_text()

    def test_in_process_main_matches_subprocess(self, capsys):
        code = main(["check", "--entropic", "2_dem"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "--relaxed", "rplus_max", "--trials", "100"],
            ["powerdomain", "valuations", "grid2"],
        ],
    )
    def test_reports_do_not_depend_on_hash_order(self, args):
        # str and bytes hashes, and so set and dict iteration order, follow
        # PYTHONHASHSEED; none of that order may reach the report.  ExtNN
        # hashes ints only, so this cannot tell its hash from an earlier one;
        # the suite sha256 pins in tests/test_report.py cover that
        outputs = []
        for hash_seed in ("0", "1"):
            proc = run_cli(args, env_extra={"PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["verdict"] == "pass"


def test_transformer_prints_its_own_algebra_name(tmp_path, capsys):
    # frame2 and lattice2 compare equal as algebras; a space built for one
    # must not be handed out for the other
    body = (
        "at bot { [0,0] -> 0; [0,1] -> 0; [1,1] -> 1 }\n"
        "at top { [0,0] -> 0; [0,1] -> 1; [1,1] -> 1 }\n"
        "end\n"
    )
    defs = tmp_path / "pair.defs"
    defs.write_text(
        "transformer tf : C2 -> C2 with frame2\n" + body
        + "transformer tl : C2 -> C2 with lattice2\n" + body,
        encoding="utf-8",
    )
    assert main(["transform", "p2q", "tl", "-f", str(defs)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result.splitlines()[0] == "ptransformer tl_p : C2 -> C2 with lattice2"


@pytest.mark.parametrize(
    "name, digest",
    [
        ("mu", "5441a25b07c6d89ef5816b88c7799f2d887789d96594f16a7b6e81560e99fdb6"),
        ("phi", "8f1b9bf6ff642c30ac304825a81297b46eb258098d15373f934ae0e16d3dccb5"),
        ("psi", "96d9f6d602ef172d8c2d962f3121149c351f6f2c3de54ba350865e189a172dbc"),
    ],
)
def test_valuation_report_bytes_are_pinned(name, digest, tmp_path, monkeypatch, capsys):
    # the linear-side laws of a valuation, a subfn and a supfn; the command
    # echo names the definition file, so it is read from the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sample.defs").write_text(SAMPLE, encoding="utf-8")
    argv = ["valuation", name, "-f", "sample.defs", "--trials", "200", "--seed", "42"]
    assert main(argv + ["--json", "out.json"]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("value", ["1", "0"])
def test_verify_suite_refuses_too_small_catalog(value):
    proc = run_cli(["verify-suite", "--catalog-max", value])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --catalog-max must be at least 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--entropic", "rplus", "--trials", "-5"],
        ["valuation", "mu", "-f", "{defs}", "--trials", "-3"],
        ["verify-suite", "--trials", "-1"],
    ],
)
def test_negative_trials_are_refused(argv, tmp_path):
    defs = tmp_path / "sample.defs"
    defs.write_text(SAMPLE, encoding="utf-8")
    proc = run_cli([arg.format(defs=defs) for arg in argv])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --trials must be at least 0\n"


@pytest.mark.parametrize("value", ["-1", "0"])
def test_size_guard_below_one_is_refused(value):
    proc = run_cli(["homs", "A2", "2_ang", "--size-guard", value])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --size-guard must be at least 1\n"


@pytest.mark.parametrize(
    "poset, digest",
    [
        ("C2", "4df0acee757e566acef13810d5197a2f2e6af934185e2adbbc522b4b0c56876c"),
        ("vee", "f33b3a0d6c0b5270257821d157b207683aa09da3ea7072dfbf7f2de06dcd6f39"),
    ],
)
def test_valuation_powerdomain_report_bytes_are_pinned(poset, digest, tmp_path, capsys):
    # the point evaluations and the linearity of every catalog valuation
    out = tmp_path / "out.json"
    assert main(["powerdomain", "valuations", poset, "--json", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_valuation_powerdomain_of_the_empty_poset(tmp_path, capsys):
    # no point, so no point evaluation and no catalog valuation on a point
    defs = tmp_path / "empty.defs"
    defs.write_text("poset E\nend\n", encoding="utf-8")
    assert main(["powerdomain", "valuations", "E", "-f", str(defs)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert (body["count"], body["points"], body["verdict"]) == (0, [], "pass")
    assert [(c["name"], c["verdict"]) for c in body["checks"]] == [
        ("valuations:point-evaluations-embed", "pass"),
        ("valuations:simple-valuations-linear", "pass"),
    ]


def test_valuation_and_envelopes_share_one_namespace(tmp_path):
    defs = tmp_path / "clash.defs"
    defs.write_text(
        "valuation phi on A2 val { 1 @ a }\n"
        "subfn phi on A2 sup{ val{ 1 @ a }; val{ 1 @ b } }\n"
        "supfn phi on A2 inf{ val{ 1 @ a }; val{ 1 @ b } }\n",
        encoding="utf-8",
    )
    proc = run_cli(["valuation", "phi", "--against", "phi", "-f", str(defs)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: {defs}:2: subfn 'phi' is already defined as a valuation\n"
    )


STRAY = """poset P
elems lo hi
le lo hi
end
algebra j on P
op join arity 2 tag EQ
table join { (lo,lo)->lo; (lo,hi)->hi; (hi,lo)->hi; (hi,hi)->hi; (hi,hi,hi)->lo }
end
"""


def test_stray_table_entry_is_a_parse_error(tmp_path):
    defs = tmp_path / "stray.defs"
    defs.write_text(STRAY, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_workspace([str(defs)])
    assert str(err.value) == f"{defs}:5: table for join has entry (1, 1, 1) outside carrier^2"
    proc = run_cli(["check", "--entropic", "j", "-f", str(defs)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {err.value}\n"


@pytest.mark.parametrize(
    "statement, message",
    [
        (
            "transformer t : C2 -> C2 with 2_ang\n"
            "at bot { [0,0] -> 0; [0,1] -> 1; [1,1] -> 1 }\n"
            "at top { [0,0] -> 0; [0,1] -> 0; [1,1] -> 1 }\n"
            "end\n",
            "table violates monotonicity on bot <= top",
        ),
        (
            "ptransformer s : C2 -> C2 with 2_ang\n"
            "at [0,0] { bot |-> 1; top |-> 1 }\n"
            "at [0,1] { bot |-> 0; top |-> 1 }\n"
            "at [1,1] { bot |-> 1; top |-> 1 }\n"
            "end\n",
            "table violates monotonicity on [0,0] <= [0,1]",
        ),
    ],
)
def test_non_monotone_transformer_names_the_cover(tmp_path, statement, message):
    defs = tmp_path / "bad.defs"
    defs.write_text(statement, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_workspace([str(defs)])
    assert str(err.value) == f"{defs}:1: {message}"


@pytest.mark.parametrize("option", ["--json", "--dot"])
def test_output_paths_stay_out_of_the_report(tmp_path, capsys, option):
    # split, joined by =, and abbreviated to a unique prefix, both ways
    spellings = ([option, "{}"], [option + "={}"], [option[:4], "{}"], [option[:4] + "={}"])
    reports = []
    for k, spelling in enumerate(spellings):
        out = tmp_path / f"out{k}"
        assert main(["export-dot", "C2"] + [s.format(out) for s in spelling]) == 0
        printed = capsys.readouterr().out
        written = out.read_text(encoding="utf-8")
        reports.append(written if option == "--json" else printed)
        if option == "--dot":
            assert written.startswith("digraph")
    assert len(set(reports)) == 1
    assert json.loads(reports[0])["command"] == "export-dot C2"


def test_commands_in_one_process_share_a_parser_but_no_arguments(sample_path, capsys):
    assert main(["valuation", "mu", "-f", sample_path, "--trials", "100"]) == 0
    # the -f list of the first command must not reach the second
    assert main(["valuation", "mu", "--trials", "100"]) == 2
    capsys.readouterr()
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["valuation", "mu"]).defs == []


def test_builtin_algebras_are_built_once_and_handed_out_in_fresh_dicts(sample_path, monkeypatch):
    first = load_workspace([])
    second = load_workspace([])
    assert first.algebra("rplus_max") is second.algebra("rplus_max")
    edited = catalog.builtin_algebras()
    edited["rplus_max"] = edited["rplus_min"]
    del edited["2_ang"]
    first.algebras.clear()
    third = load_workspace([])
    assert third.algebra("rplus_max") is second.algebra("rplus_max")
    assert third.algebra("2_ang") is second.algebra("2_ang")
    fresh = catalog.builtin_algebras()
    assert fresh["rplus_max"] is second.algebra("rplus_max")
    assert fresh["2_ang"] is second.algebra("2_ang")
    # a user-defined algebra on extnn is still checked every time it is defined
    checked = []
    original = RatAlgebra._grid_monotone

    def counting(self):
        checked.append(self.name)
        original(self)

    monkeypatch.setattr(RatAlgebra, "_grid_monotone", counting)
    load_workspace([sample_path])
    load_workspace([sample_path])
    assert checked == ["rmix", "rmix"]


def test_builtin_posets_are_built_once_and_handed_out_in_fresh_dicts():
    first = catalog.builtin_posets()
    second = catalog.builtin_posets()
    assert first is not second
    assert first.keys() == second.keys()
    assert all(first[name] is second[name] for name in first)
    first["C2"] = first["A2"]
    del first["vee"]
    third = catalog.builtin_posets()
    assert third["C2"] is second["C2"]
    assert third["vee"] is second["vee"]
    assert Workspace().poset("C2") is second["C2"]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading, lang):
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start:section.index("```", start)]


def test_readme_definition_example_loads_and_its_commands_succeed(tmp_path):
    defs = tmp_path / "my.defs"
    defs.write_text(_readme_block("## Definition files", "text"), encoding="utf-8")
    ws = Workspace()
    ws.load_text(str(defs), defs.read_text(encoding="utf-8"))
    assert {"mu", "nu"} <= set(ws.valuations)
    commands = [
        line.split("#")[0]
        for line in _readme_block("## Command line", "sh").splitlines()
        if "-f my.defs" in line
    ]
    assert len(commands) == 2
    for command in commands:
        argv = shlex.split(command)[1:]
        argv[argv.index("my.defs")] = str(defs)
        assert main(argv) == 0, command


# pieces a mutant splices into the README definition block: punctuation,
# keywords, names from the block, malformed numbers and stray characters
_PIECES = st.one_of(
    st.sampled_from(
        [
            "{", "}", "(", ")", ";", ",", "->", "|->", "@", ":", "/", "#", "\n", " ",
            "0", "1", "-1", "1/0", "0/0", "inf", "99999999999", "1e5", "[0,1]", "[]",
            "end", "poset", "elems", "le", "algebra", "op", "arity", "tag", "table",
            "builtin", "const", "map", "valuation", "subfn", "supfn", "predicate",
            "transformer", "ptransformer", "at", "val", "sup", "inf", "pred", "on",
            "with", "extnn", "EQ", "LE", "P3", "C2", "A2", "lo", "hi", "mu", "t",
        ]
    ),
    st.text(max_size=4),
)


@st.composite
def _readme_mutants(draw):
    text = _readme_block("## Definition files", "text")
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 30)))
        kind = draw(st.sampled_from(["delete", "insert", "replace", "duplicate"]))
        if kind == "delete":
            middle = ""
        elif kind == "duplicate":
            middle = text[i:j] * 2
        else:
            middle = draw(_PIECES)
        text = text[:i] + middle + text[i if kind == "insert" else j:]
    return text


_MUTANT_COMMANDS = [
    ["export-dot", "P3"],
    ["check", "--entropic", "twojoin", "--trials", "20"],
    ["check", "--relaxed", "rmix", "--trials", "20"],
    ["valuation", "phi", "--against", "nu", "--trials", "20"],
    ["transform", "p2q", "t"],
    ["powerdomain", "hoare", "P3"],
]


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(text=_readme_mutants(), argv=st.sampled_from(_MUTANT_COMMANDS))
def test_mutated_definitions_fail_only_with_powdom_errors(text, argv, tmp_path, capsys):
    try:
        Workspace().load_text("mutant.defs", text)
    except PowdomError:
        pass
    path = tmp_path / "mutant.defs"
    path.write_text(text, encoding="utf-8")
    assert main(argv + ["-f", str(path)]) in (0, 1, 2, 3)
    capsys.readouterr()


# one malformed snippet per error site of the definition parser, with the
# exact exception type and text it ends in
_PINNED_ERRORS = {
    "eof": ("poset X\nelems a b\nle a b\n", "ParseError", "{path}:3: unexpected end of file"),
    "expected-token": (
        "map u C2 -> C2 { bot |-> bot; top |-> top }\n",
        "ParseError",
        "{path}:1: expected ':', found 'C2'",
    ),
    "unknown-statement": (
        "poset X\nelems a\nend\nfrobnicate X\n",
        "ParseError",
        "{path}:4: unknown statement 'frobnicate'",
    ),
    "poset-keyword": (
        "poset X\nelems a b\nge a b\nend\n",
        "ParseError",
        "{path}:3: expected 'elems', 'le' or 'end', found 'ge'",
    ),
    "bad-tag": (
        "algebra j on C2\nop join arity 2 tag XX\nend\n",
        "ParseError",
        "{path}:2: expected a tag LE, GE or EQ, found 'XX'",
    ),
    "bad-arity": (
        "algebra j on C2\nop join arity two tag EQ\nend\n",
        "ParseError",
        "{path}:2: arity must be a natural number",
    ),
    "bad-literal": (
        "valuation mu on C2 val { 1/2 @ bot;\n x/y @ top }\n",
        "ParseError",
        "{path}:2: bad numeric literal 'x/y'",
    ),
    "unknown-builtin": (
        "algebra r on extnn\nop add arity 2 tag LE\nbuiltin add plus\nend\n",
        "ParseError",
        "{path}:3: unknown builtin realisation 'plus'",
    ),
    # the catalog's nullary ops are no builtin kinds: only 'const' names a constant
    "unknown-builtin-zero": (
        "algebra r on extnn\nop z arity 0 tag EQ\nbuiltin z zero\nend\n",
        "ParseError",
        "{path}:3: unknown builtin realisation 'zero'",
    ),
    "unknown-builtin-one": (
        "algebra r on extnn\nop o arity 0 tag EQ\nbuiltin o one\nend\n",
        "ParseError",
        "{path}:3: unknown builtin realisation 'one'",
    ),
    "algebra-keyword": (
        "algebra j on C2\nop join arity 2 tag EQ\nrealise join\nend\n",
        "ParseError",
        "{path}:3: expected 'op', 'table', 'builtin' or 'end'",
    ),
    "table-on-extnn": (
        "algebra r on extnn\nop add arity 2 tag LE\ntable add { (0,0)->0 }\nend\n",
        "ParseError",
        "{path}:3: tables need a finite carrier; use 'builtin' on extnn",
    ),
    "reserved-extnn": (
        "\nposet extnn\nelems a b\nend\n",
        "ParseError",
        "{path}:2: poset name 'extnn' is reserved for the rational carrier",
    ),
    "wrapped-poset": (
        "poset X\nelems a b\nle a b\nle b a\nend\n",
        "ParseError",
        "{path}:1: cover relation creates a cycle through a and b",
    ),
    "wrapped-algebra": (
        "algebra bad on C2\nop join arity 2 tag EQ\n"
        "table join { (bot,bot)->bot; (bot,top)->top; (top,bot)->top; (top,top)->top }\n"
        "table typo { () -> bot }\nend\n",
        "ParseError",
        "{path}:1: realisation for undeclared operation 'typo'",
    ),
    "wrapped-map": (
        "\nmap u : C2 -> C2 { bot |-> top;\n top |-> bot }\n",
        "ParseError",
        "{path}:2: table violates monotonicity on bot <= top",
    ),
    "wrapped-envelope": (
        "subfn phi on A2\n sup{ }\n",
        "ParseError",
        "{path}:1: at least one component valuation is required",
    ),
    "wrapped-predicate": (
        "predicate f on C2 pred { bot -> 2;\n top -> 1 }\n",
        "ParseError",
        "{path}:1: predicate not monotone on bot <= top",
    ),
    "wrapped-transformer": (
        "transformer t : C2 -> C2 with 2_ang\n"
        "at bot { [0,0] -> 0; [0,1] -> 1; [1,1] -> 1 }\n"
        "at top { [0,0] -> 0; [0,1] -> 0; [1,1] -> 1 }\nend\n",
        "ParseError",
        "{path}:1: table violates monotonicity on bot <= top",
    ),
    "wrapped-ptransformer": (
        "ptransformer s : C2 -> C2 with 2_ang\n"
        "at [0,0] { bot |-> 1; top |-> 1 }\n"
        "at [0,1] { bot |-> 0; top |-> 1 }\n"
        "at [1,1] { bot |-> 1; top |-> 1 }\nend\n",
        "ParseError",
        "{path}:1: table violates monotonicity on [0,0] <= [0,1]",
    ),
    "wrapped-transformer-predicate": (
        "transformer t : C2 -> C2 with 2_ang\nat bot { [0,0] -> 0;\n [1,0] -> 0; [1,1] -> 1 }\nend\n",
        "ParseError",
        "{path}:3: map (1, 0) is not in this exponential",
    ),
    "wrapped-transformer-functional": (
        "transformer t : C2 -> C2 with 2_ang\nat bot { [0,0] -> 1;\n [0,1] -> 0; [1,1] -> 0 }\nend\n",
        "ParseError",
        "{path}:2: map (1, 0, 0) is not in this exponential",
    ),
    "wrapped-ptransformer-at": (
        "ptransformer s : C2 -> C2 with 2_ang\n"
        "at [0,0] { bot |-> 0; top |-> 0 }\n"
        "at [0,1] {\n bot |-> 1; top |-> 0 }\nend\n",
        "ParseError",
        "{path}:3: map (1, 0) is not in this exponential",
    ),
    "map-totality": (
        "map u : C2 -> C2 { bot |-> bot;\n }\n",
        "ParseError",
        "{path}:2: map body misses elements ['top']",
    ),
    "predicate-totality": (
        "predicate f on A2 pred {\n a -> 1 }\n",
        "ParseError",
        "{path}:1: predicate misses element b",
    ),
    "transformer-totality": (
        "transformer t : C2 -> C2 with 2_ang\nat bot { [0,0] -> 0; [0,1] -> 0; [1,1] -> 1 }\nend\n",
        "ParseError",
        "{path}:1: transformer misses elements ['top']",
    ),
    "transformer-functional-totality": (
        "transformer t : C2 -> C2 with 2_ang\nat bot { [0,0] -> 0; [1,1] -> 1 }\nend\n",
        "ParseError",
        "{path}:2: functional at bot is not total",
    ),
    "ptransformer-totality": (
        "ptransformer s : C2 -> C2 with 2_ang\nat [0,0] { bot |-> 0; top |-> 0 }\nend\n",
        "ParseError",
        "{path}:1: 2 predicates have no image",
    ),
    "transformer-keyword": (
        "transformer t : C2 -> C2 with 2_ang\nfrom bot\nend\n",
        "ParseError",
        "{path}:2: expected 'at' or 'end', found 'from'",
    ),
    "ptransformer-keyword": (
        "ptransformer s : C2 -> C2 with 2_ang\nfrom bot\nend\n",
        "ParseError",
        "{path}:2: expected 'at' or 'end', found 'from'",
    ),
    "transformer-infinite-algebra": (
        "\ntransformer t : C2 -> C2 with rplus\nend\n",
        "ParseError",
        "{path}:2: transformers need a finite observation algebra",
    ),
    "ptransformer-infinite-algebra": (
        "\nptransformer s : C2 -> C2 with rplus\nend\n",
        "ParseError",
        "{path}:2: transformers need a finite observation algebra",
    ),
    "already-defined": (
        "map u : C2 -> C2 { bot |-> bot; top |-> top }\n"
        "map u : C2 -> C2 { bot |-> top; top |-> top }\n",
        "ParseError",
        "{path}:2: map 'u' is already defined",
    ),
    "shared-namespace": (
        "valuation phi on A2 val { 1 @ a }\nsubfn phi on A2 sup{ val{ 1 @ a }; val{ 1 @ b } }\n",
        "ParseError",
        "{path}:2: subfn 'phi' is already defined as a valuation",
    ),
    "unknown-name": ("map u : nowhere -> C2 { }\n", "UnknownNameAt", "{path}:1: unknown poset 'nowhere'"),
    "unterminated-body": (
        "map u : C2 -> C2 { bot |-> bot;\n top |-> top\n",
        "ParseError",
        "{path}:2: unterminated map body",
    ),
    "label-map": (
        "map u : C2 -> C2 { bot |-> nope }\n",
        "ParseError",
        "{path}:1: unknown element 'nope'",
    ),
    "label-valuation": (
        "valuation mu on C2 val {\n 1/2 @ bot;\n 1/3 @ zz }\n",
        "ParseError",
        "{path}:3: unknown element 'zz'",
    ),
    "label-table": (
        "algebra j on C2\nop neg arity 1 tag EQ\ntable neg { (bot) -> top;\n (mid) -> bot }\nend\n",
        "ParseError",
        "{path}:4: unknown element 'mid'",
    ),
    "label-predicate": (
        "predicate f on A2 pred { a -> 1;\n c -> 2 }\n",
        "ParseError",
        "{path}:2: unknown element 'c'",
    ),
    "label-transformer-at": (
        "transformer t : C2 -> C2 with 2_ang\nat mid { [0,0] -> 0 }\nend\n",
        "ParseError",
        "{path}:2: unknown element 'mid'",
    ),
    "label-transformer-value": (
        "transformer t : C2 -> C2 with 2_ang\nat bot { [0,0] -> 0;\n [0,2] -> 0 }\nend\n",
        "ParseError",
        "{path}:3: unknown element '2'",
    ),
    "label-ptransformer": (
        "ptransformer s : C2 -> C2 with 2_ang\nat [0,0] {\n bot |-> 0; up |-> 0 }\nend\n",
        "ParseError",
        "{path}:3: unknown element 'up'",
    ),
}


@pytest.mark.parametrize("case", list(_PINNED_ERRORS))
def test_parse_errors_are_pinned(case):
    text, kind, message = _PINNED_ERRORS[case]
    with pytest.raises(PowdomError) as err:
        Workspace().load_text("case.defs", text)
    assert (type(err.value).__name__, str(err.value)) == (kind, message.format(path="case.defs"))


def test_label_errors_name_their_file_and_line(tmp_path, capsys):
    defs = tmp_path / "labels.defs"
    defs.write_text("valuation mu on C2 val {\n 1/2 @ bot;\n 1/3 @ zz }\n", encoding="utf-8")
    assert main(["valuation", "mu", "-f", str(defs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {defs}:3: unknown element 'zz'\n"


def test_a_poset_named_extnn_is_refused(tmp_path, capsys):
    # ``on extnn`` always means the rational carrier, so no algebra could
    # ever sit on a file-defined poset of that name
    defs = tmp_path / "extnn.defs"
    defs.write_text("poset extnn\nelems a b\nle a b\nend\n", encoding="utf-8")
    assert main(["export-dot", "extnn", "-f", str(defs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {defs}:1: poset name 'extnn' is reserved for the rational carrier\n"


def test_undefined_names_are_located_in_files_only(tmp_path, capsys):
    # a file names an undefined algebra on its third line; a command line
    # names an undefined poset, which has no line
    defs = tmp_path / "names.defs"
    defs.write_text("transformer t : C2 -> C2\n\n with nothing\nend\n", encoding="utf-8")
    assert main(["homs", "C2", "2_ang", "-f", str(defs)]) == 2
    assert capsys.readouterr().err == f"error: {defs}:3: unknown algebra 'nothing'\n"
    assert main(["homs", "nowhere", "2_ang"]) == 2
    assert capsys.readouterr().err == "error: unknown poset 'nowhere'\n"
    with pytest.raises(UnknownName) as err:
        Workspace().algebra("nothing")
    assert type(err.value) is UnknownName


def test_non_decimal_arity_is_a_parse_error():
    # '²' is a digit to str.isdigit but not a number to int
    with pytest.raises(ParseError) as err:
        Workspace().load_text("case.defs", "algebra j on C2\nop join arity ² tag EQ\nend\n")
    assert str(err.value) == "case.defs:2: arity must be a natural number"


@pytest.mark.parametrize(
    "family, read",
    [
        ("homs", {"hom_indices"}),
        ("free", {"free_indices", "hom_indices"}),
        ("relaxed", {"relaxed_indices", "hom_indices"}),
    ],
)
def test_family_commands_compute_only_the_family_they_report(family, read, monkeypatch, capsys):
    seen = set()
    for name in ("hom_indices", "free_indices", "relaxed_indices"):
        fget = getattr(FunctionalSpace, name).fget

        def spy(space, name=name, fget=fget):
            seen.add(name)
            return fget(space)

        monkeypatch.setattr(FunctionalSpace, name, property(spy))
    assert main([family, "A2", "2_ang"]) == 0
    capsys.readouterr()
    assert seen == read
