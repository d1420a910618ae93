import io
import json
import sys

import pytest

from cobcalc import chow_models, clear_caches
from cobcalc.chow_models import VarietySpec, chern_number
from cobcalc.cli import _THEOREMS, main, series_json
from cobcalc.core_algebra import TRING, TruncatedSeries, partitions
from cobcalc.fgl import formal_mult, universal_fgl
from cobcalc.fixedpoint import VERIFIERS
from fresh_process import LOADED, run_fresh

P1 = {"type": "multiproj", "dims": [1]}
P2 = {"type": "multiproj", "dims": [2]}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_fgl_chx_order4_signs(capsys):
    code, obj = run(capsys, ["fgl", "--law", "chx", "--order", "4"])
    assert code == 0
    assert obj["status"] == "pass"
    terms = {tuple(t["exp"]): t["coeff"] for t in obj["payload"]["series"]["terms"]}
    assert terms[(1, 1)] == TRING.monomials(TRING.monomial(1, -2))
    assert terms[(2, 1)] == TRING.monomials(TRING.monomial(2, 1))
    assert terms[(1, 2)] == TRING.monomials(TRING.monomial(2, 1))
    assert terms[(1, 0)] == TRING.monomials(TRING.one())


def test_fgl_universal_mult_roundtrip(capsys):
    code, obj = run(capsys, ["fgl", "--order", "5", "--mult", "2"])
    assert code == 0
    want = formal_mult(universal_fgl(5), 2)
    assert obj["payload"]["mult"]["series"] == series_json(want)
    assert obj["payload"]["mult"]["a"] == 2


def test_fgl_mod_p_requires_p(capsys):
    code, obj = run(capsys, ["fgl", "--law", "universal-mod-p"])
    assert code == 2
    assert obj["status"] == "error"


@pytest.mark.parametrize("p", [4, 1])
def test_fgl_mod_p_requires_a_prime(capsys, p):
    code, obj = run(capsys, ["fgl", "--law", "universal-mod-p", "--p", str(p), "--order", "3"])
    assert code == 2
    assert obj["status"] == "error"
    assert "prime" in obj["error"]


@pytest.mark.parametrize("law", ["universal", "universal-mod-p"])
def test_fgl_order_below_two_exits_2(capsys, law):
    code, obj = run(capsys, ["fgl", "--law", law, "--p", "2", "--order", "1"])
    assert code == 2
    assert obj["error"] == "--order must be at least 2"


@pytest.mark.parametrize("law", ["universal", "chx", "cha", "additive"])
def test_fgl_p_without_mod_p_law_exits_2(capsys, law):
    # only the universal law mod p has a p; the others must not echo one
    code, obj = run(capsys, ["fgl", "--law", law, "--order", "4", "--p", "3"])
    assert code == 2
    assert obj["status"] == "error"
    assert obj["error"] == "--p applies only to --law universal-mod-p"
    assert "payload" not in obj


def test_chern_full_listing(capsys):
    code, obj = run(capsys, ["chern", "--spec", json.dumps(P2)])
    assert code == 0
    pl = obj["payload"]
    assert pl["dim"] == 2
    assert pl["euler_number"] == 3
    assert pl["chern_numbers"] == {"2": -3, "1,1": 6}


def test_chern_single_alpha(capsys):
    p3 = {"type": "multiproj", "dims": [3]}
    code, obj = run(capsys, ["chern", "--spec", json.dumps(p3), "--alpha", "[2,1]"])
    assert code == 0
    assert obj["payload"]["chern_number"] == chern_number(VarietySpec.from_json(p3), (2, 1))
    assert obj["payload"]["alpha"] == [2, 1]


def test_chern_matches_library_for_product(capsys):
    spec = {"type": "multiproj", "dims": [1, 2]}
    _, obj = run(capsys, ["chern", "--spec", json.dumps(spec)])
    vs = VarietySpec.from_json(spec)
    for alpha in partitions(3):
        key = ",".join(str(a) for a in alpha)
        assert obj["payload"]["chern_numbers"][key] == chern_number(vs, alpha)


def test_chern_bad_json_exits_2(capsys):
    code, obj = run(capsys, ["chern", "--spec", "{bad"])
    assert code == 2
    assert "invalid JSON" in obj["error"]


def test_chern_bad_alpha_exits_2(capsys):
    code, obj = run(capsys, ["chern", "--spec", json.dumps(P2), "--alpha", "[0]"])
    assert code == 2
    code, obj = run(capsys, ["chern", "--spec", json.dumps(P2), "--alpha", "7"])
    assert code == 2


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"type": "multiproj"}, "dims"),
        ({"type": "multiproj", "dims": 3}, "dims"),
        ({"type": "projbundle", "lines": [[0], [1]]}, "base"),
        ({"type": "projbundle", "base": [1], "lines": [[0], [1]]}, "base"),
        ({"type": "projbundle", "base": P1}, "lines"),
        ({"type": "projbundle", "base": P1, "lines": [0, 1]}, "lines"),
        ({"type": "product"}, "factors"),
        ({"type": "product", "factors": {"a": P1}}, "factors"),
        ({"type": "disjoint"}, "components"),
        ({"type": "disjoint", "components": "P1"}, "components"),
        ({"type": "product", "factors": [{"type": "multiproj"}]}, "dims"),
    ],
)
def test_chern_malformed_spec_exits_2(capsys, spec, field):
    code = main(["chern", "--spec", json.dumps(spec)])
    captured = capsys.readouterr()
    assert code == 2
    obj = json.loads(captured.out)
    assert obj["status"] == "error"
    assert repr(field) in obj["error"]
    assert "Traceback" not in captured.err


def _line_component(**fields):
    comp = {"spec": P1, "codim": 1, "normal_lines": [[1]]}
    comp.update(fields)
    return comp


@pytest.mark.parametrize(
    "components, field",
    [
        (5, "components"),
        ({"c": _line_component()}, "components"),
        ([_line_component(normal_lines=5)], "normal_lines"),
        ([_line_component(normal_lines=[1])], "normal_lines"),
        ([_line_component(normal_lines=[["1"]])], "normal_lines"),
        ([_line_component(normal_trivial_rank="0")], "normal_trivial_rank"),
        ([_line_component(normal_trivial_rank=[0])], "normal_trivial_rank"),
        ([_line_component(normal_minus_trivial_rank=0.5)], "normal_minus_trivial_rank"),
    ],
)
def test_verify_malformed_action_exits_2(capsys, components, field):
    action = {"ambient": P2, "components": components}
    code = main(["verify", "--theorem", "euler", "--action", json.dumps(action)])
    captured = capsys.readouterr()
    assert code == 2
    obj = json.loads(captured.out)
    assert obj["status"] == "error"
    assert repr(field) in obj["error"]
    assert "Traceback" not in captured.err


def _action_argv(**fields):
    action = {"ambient": P2, "components": [_line_component(**fields)]}
    return ["verify", "--theorem", "euler", "--action", json.dumps(action)]


@pytest.mark.parametrize(
    "argv",
    [
        ["chern", "--spec", json.dumps({"type": "multiproj", "dims": [True]})],
        ["chern", "--spec", json.dumps(P1), "--alpha", "[true]"],
        ["chern", "--spec", json.dumps({"type": "projbundle", "base": P1, "lines": [[0], [True]]})],
        _action_argv(normal_lines=[[True]]),
        _action_argv(codim=True),
        _action_argv(normal_trivial_rank=False),
        _action_argv(normal_minus_trivial_rank=False),
    ],
    ids=["dims", "alpha", "lines", "normal_lines", "codim", "normal_trivial_rank",
         "normal_minus_trivial_rank"],
)
def test_json_boolean_is_not_an_integer(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["status"] == "error"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("theorem", ["l2", "lmod2", "all"])
def test_negative_max_m_exits_2(capsys, theorem):
    code, obj = run(capsys, ["verify", "--theorem", theorem, "--builtin", "linear_pn",
                             "--n", "3", "--a", "1", "--max-m", "-1"])
    assert code == 2
    assert obj["error"] == "max_m must be >= 0"


def test_partition_guard_at_cli(capsys):
    p3 = json.dumps({"type": "multiproj", "dims": [3]})
    code, obj = run(capsys, ["chern", "--spec", p3, "--alpha", "[1,2]"])
    assert code == 2
    assert obj["error"] == "alpha must be a partition"
    code, obj = run(
        capsys,
        ["verify", "--theorem", "ks", "--builtin", "linear_pn", "--n", "3", "--a", "1",
         "--alpha", "[1,2]"],
    )
    assert code == 2
    assert obj["error"] == "alpha must be a partition"


def test_chern_file_io(capsys, tmp_path):
    src = tmp_path / "spec.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps(P2))
    code = main(["chern", "--in", str(src), "--out", str(dst)])
    assert code == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(dst.read_text())
    assert obj["payload"]["euler_number"] == 3


@pytest.mark.parametrize("spec", [P2, {"type": "multiproj", "dims": [-2]}])
def test_unwritable_out_exits_2(capsys, tmp_path, spec):
    # on the success path and on the error path of main, an --out that
    # cannot be opened (a directory, or a file in a missing directory) is a
    # usage error named on stdout, not a traceback with exit 1
    for dst in (tmp_path, tmp_path / "missing" / "out.json"):
        code, obj = run(capsys, ["chern", "--spec", json.dumps(spec), "--out", str(dst)])
        assert code == 2
        assert obj["status"] == "error"
        assert obj["error"].startswith("cannot write %s: " % dst)
    assert list(tmp_path.iterdir()) == []


def test_chern_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(P2)))
    code, obj = run(capsys, ["chern", "--in", "-"])
    assert code == 0
    assert obj["payload"]["dim"] == 2


def test_verify_builtin_pass(capsys):
    code, obj = run(
        capsys, ["verify", "--theorem", "all", "--builtin", "linear_pn", "--n", "3", "--a", "1"]
    )
    assert code == 0
    assert obj["status"] == "pass"
    assert obj["checks"]
    assert all(c["status"] in ("pass", "hypothesis-not-met") for c in obj["checks"])
    assert obj["payload"]["name"] == "linear_pn(n=3,a=1)"


def test_verify_ks_alpha_restriction(capsys):
    code, obj = run(
        capsys,
        ["verify", "--theorem", "ks", "--builtin", "linear_pn", "--n", "2", "--a", "0",
         "--alpha", "[2]"],
    )
    assert code == 0
    ids = [c["id"] for c in obj["checks"] if c["id"].startswith("ks:alpha")]
    assert ids == ["ks:alpha:(2)"]


def test_verify_inconsistent_action_fails(capsys):
    # fixed locus missing a component: parity checks must fail, exit 1
    action = {
        "ambient": P2,
        "components": [
            {"spec": {"type": "multiproj", "dims": [1]}, "codim": 1,
             "normal_lines": [[1]], "normal_trivial_rank": 0}
        ],
    }
    code, obj = run(capsys, ["verify", "--theorem", "euler", "--action", json.dumps(action)])
    assert code == 1
    assert obj["status"] == "fail"
    by_id = {c["id"]: c for c in obj["checks"]}
    assert by_id["euler:mod2"]["status"] == "fail"


def test_verify_action_json_roundtrip(capsys):
    action = {
        "ambient": P2,
        "components": [
            {"spec": {"type": "multiproj", "dims": [0]}, "codim": 2,
             "normal_lines": [[1], [1]], "normal_trivial_rank": 0},
            {"spec": {"type": "multiproj", "dims": [1]}, "codim": 1,
             "normal_lines": [[1]], "normal_trivial_rank": 0},
        ],
    }
    code, obj = run(capsys, ["verify", "--theorem", "l2", "--action", json.dumps(action)])
    assert code == 0
    assert obj["payload"]["action"] == action


def test_verify_needs_exactly_one_source(capsys):
    code, obj = run(capsys, ["verify", "--theorem", "euler"])
    assert code == 2
    code, obj = run(
        capsys,
        ["verify", "--theorem", "euler", "--builtin", "factorwise_p1n", "--n", "2",
         "--action", "{}"],
    )
    assert code == 2


def test_verify_decomposable_p(capsys):
    code, obj = run(
        capsys,
        ["verify", "--theorem", "decomposable", "--builtin", "linear_pn", "--n", "2",
         "--a", "0", "--p", "3"],
    )
    assert code == 0
    verdict = next(c for c in obj["checks"] if c["id"] == "decomposable:verdict")
    assert verdict["lhs"]["p"] == 3


@pytest.mark.parametrize("flag, value, theorem, readers", [
    ("--p", "3", "all", "decomposable"),
    ("--alpha", "[2,1]", "l2", "ks"),
    ("--max-m", "2", "decomposable", "l2 or lmod2 or all"),
])
def test_verify_flag_outside_its_theorems_exits_2(capsys, flag, value, theorem, readers):
    # a flag the chosen verifier does not read is refused, not ignored
    code, obj = run(capsys, ["verify", "--theorem", theorem, "--builtin", "linear_pn",
                             "--n", "3", "--a", "1", flag, value])
    assert code == 2
    assert obj["status"] == "error"
    assert obj["error"] == "%s applies only to --theorem %s" % (flag, readers)


# the sign change on one coordinate of P^2: a point and a line are fixed
_ACTION = json.dumps({"ambient": P2, "components": [
    {"spec": {"type": "multiproj", "dims": [0]}, "codim": 2, "normal_lines": [[1], [1]]},
    {"spec": P1, "codim": 1, "normal_lines": [[1]]},
]})


@pytest.mark.parametrize("source, flag, value, readers", [
    (["--builtin", "factorwise_p1n", "--n", "2"], "--a", "7", "linear_pn"),
    (["--builtin", "factorwise_p1n", "--n", "2"], "--a", "0", "linear_pn"),
    (["--builtin", "linear_pn", "--n", "3", "--a", "1"], "--spec", json.dumps(P1), "swap_square"),
    (["--builtin", "swap_square", "--spec", json.dumps(P1)], "--n", "2",
     "linear_pn or factorwise_p1n"),
    (["--action", _ACTION], "--n", "2", "linear_pn or factorwise_p1n"),
    (["--action", _ACTION], "--a", "0", "linear_pn"),
    (["--action", _ACTION], "--spec", json.dumps(P1), "swap_square"),
    (["--in", "-"], "--n", "1", "linear_pn or factorwise_p1n"),
    (["--builtin", "linear_p"], "--n", "3", None),
    (["--builtin", "linear_p", "--n", "3"], "--a", "1", None),
    (["--builtin", "swap_squar"], "--spec", json.dumps(P1), None),
])
def test_verify_builtin_parameter_its_source_ignores_exits_2(capsys, source, flag, value, readers):
    # a builtin parameter that the chosen builtin, or an --action or --in
    # source, does not read is refused, not ignored; --a 0 counts as given.
    # A misspelt builtin is named as unknown, not blamed on its parameters
    code, obj = run(capsys, ["verify", "--theorem", "euler"] + source + [flag, value])
    assert code == 2
    assert obj["status"] == "error"
    if readers is None:
        assert obj["error"] == "unknown builtin action %r" % source[1]
    else:
        assert obj["error"] == "%s applies only to --builtin %s" % (flag, readers)


@pytest.mark.parametrize("spec", [
    {"type": "multiproj", "dims": [1, 1]},
    {"type": "projbundle", "base": P1, "lines": [[0], [1]]},
])
def test_swap_square_refuses_a_factor_of_two_layers(capsys, spec):
    # the diagonal's normal bundle, the factor's tangent bundle, would
    # subtract one trivial summand per layer
    code, obj = run(capsys, ["verify", "--theorem", "all", "--builtin", "swap_square",
                             "--spec", json.dumps(spec)])
    assert code == 2
    assert obj["status"] == "error"
    assert obj["error"] == ("swap_square needs a factor whose tower has at most one layer "
                            "(a projective space or a point); this one has 2 layers")


def test_catalog_deterministic(capsys):
    main(["catalog"])
    first = capsys.readouterr().out
    main(["catalog"])
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    names = [e["name"] for e in obj["payload"]["builtins"]]
    assert names == ["linear_pn", "factorwise_p1n", "swap_square"]


def test_catalog_filter(capsys):
    code, obj = run(capsys, ["catalog", "--builtin", "swap_square"])
    assert code == 0
    assert len(obj["payload"]["builtins"]) == 1
    code, obj = run(capsys, ["catalog", "--builtin", "nope"])
    assert code == 2


def test_pretty_output(capsys):
    code = main(["catalog", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("{\n")
    json.loads(out)


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_has_no_order_flag():
    # lmod2 takes its series order from the ambient dimension
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "lmod2", "--builtin", "linear_pn", "--n", "3", "--a", "1",
              "--order", "9"])
    assert exc.value.code == 2


def test_failed_self_check_exits_3(capsys, monkeypatch):
    # a residue series of degree 0 makes the pushforward inhomogeneous, so
    # its homogeneity check fires: exit 3 with an error object, no traceback
    def constant_residue_series(V):
        order = V.rank + V.model.dim
        ones = {(k,): chow_models.B.one() for k in range(order)}
        return order, ((0, TruncatedSeries(chow_models.B, ("y",), order, ones)),)

    # an earlier test may have left these pushforwards in the memo of a
    # cached model, where the patched residue series would never be read
    clear_caches()
    monkeypatch.setattr(chow_models, "_residue_series", constant_residue_series)
    code = main(["verify", "--theorem", "l2", "--builtin", "linear_pn", "--n", "3", "--a", "1"])
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert code == 3
    assert obj["status"] == "internal-error"
    assert "not homogeneous" in obj["error"]
    assert "Traceback" not in captured.err


# each command loads only its layers: `chern` neither the verifiers, the
# lattices nor the law store, `fgl` neither the verifiers nor the lattices
LOADS_CLI = """
import contextlib, io, json, sys
from cobcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, %s]))
""" % LOADED


@pytest.mark.parametrize("argv, unloaded", [
    (["chern", "--spec", json.dumps(P2)], ("fixedpoint", "cobordism", "fgl")),
    (["chern", "--spec", json.dumps(P2), "--alpha", "[1,1]"], ("fixedpoint", "cobordism", "fgl")),
    (["fgl", "--law", "chx", "--order", "6", "--mult", "2"], ("fixedpoint", "cobordism")),
])
def test_command_loads_only_its_layers(argv, unloaded):
    code, loaded = run_fresh(LOADS_CLI, *argv)
    assert code == 0
    assert [m for m in loaded if m.split(".")[-1] in unloaded] == []


def test_parser_theorems_are_the_verifier_table():
    assert _THEOREMS == tuple(sorted(VERIFIERS))
