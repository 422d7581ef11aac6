"""Command-line interface tests: exit codes, formats, determinism."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphck import cli
from graphck.cli import main
from graphck.graphs import dump_graph, load_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def two_loops(tmp_path):
    return write(
        tmp_path,
        "two_loops.json",
        {
            "vertices": ["v"],
            "edges": [{"id": "l1", "from": "v", "to": "v"}, {"id": "l2", "from": "v", "to": "v"}],
            "relation_exempt": [],
        },
    )


@pytest.fixture
def loop_with_exempt(tmp_path):
    return write(
        tmp_path,
        "loop.json",
        {
            "vertices": ["v"],
            "edges": [{"id": "l", "from": "v", "to": "v"}],
            "relation_exempt": ["v"],
        },
    )


def test_ktheory_two_loops(capsys, two_loops):
    code, out, err = run(capsys, "ktheory", two_loops)
    assert code == 0
    data = json.loads(out)
    assert data["k0"] == "0" and data["k1"] == "0"
    assert "K0 = 0, K1 = 0" in err


def test_boundary_single_loop(capsys, loop_with_exempt):
    code, out, _ = run(capsys, "boundary", loop_with_exempt, "--class", "1")
    assert code == 0
    assert json.loads(out)["boundary"] == [-1]


def test_boundary_class_with_a_leading_minus_needs_the_equals_form(capsys, tmp_path):
    # argparse reads "-1,2" after "--class" as another option, not its value
    data = {
        "vertices": ["a", "b"],
        "edges": [{"id": "la", "from": "a", "to": "a"}, {"id": "lb", "from": "b", "to": "b"}],
        "relation_exempt": ["a", "b"],
    }
    path = write(tmp_path, "loops.json", data)
    code, out, _ = run(capsys, "boundary", path, "--class=-1,2")
    assert code == 0
    assert json.loads(out)["boundary"] == [1, -2]
    with pytest.raises(SystemExit) as exc:
        main(["boundary", path, "--class", "-1,2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_les_check_passes(capsys, loop_with_exempt):
    code, out, _ = run(capsys, "les-check", loop_with_exempt)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_check_finite_pass_and_fail(capsys, two_loops, tmp_path):
    code, out, _ = run(capsys, "check", two_loops)
    assert code == 0 and json.loads(out)["pass"] is True
    cycle = write(
        tmp_path,
        "cycle.json",
        {
            "vertices": ["a", "b"],
            "edges": [{"id": "e1", "from": "a", "to": "b"}, {"id": "e2", "from": "b", "to": "a"}],
            "relation_exempt": [],
        },
    )
    code, out, _ = run(capsys, "check", cycle)
    assert code == 1 and json.loads(out)["pass"] is False


def test_malformed_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 1" in err


def test_deeply_nested_file_exits_two(capsys, tmp_path):
    # json.load recurses once per bracket and overflows the interpreter stack
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    for command in ("check", "ktheory", "les-check"):
        code, out, err = run(capsys, command, str(deep))
        assert code == 2, command
        assert out == "" and "nested too deeply" in err and "Traceback" not in err


def test_directory_input_exits_two(capsys, tmp_path):
    for command in ("check", "ktheory", "les-check", "colimit"):
        code, out, err = run(capsys, command, str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("input error:") and "Traceback" not in err


def test_directory_output_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "synthesize", "--k0", "Z", "--k1", "Z", "-o", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("input error:")


def test_unknown_vertex_exits_two(capsys, tmp_path):
    path = write(
        tmp_path,
        "dangling.json",
        {"vertices": ["v"], "edges": [{"id": "e", "from": "v", "to": "ghost"}], "relation_exempt": []},
    )
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "ghost" in err


def test_synthesize_emits_verified_chain(capsys, tmp_path):
    out_path = tmp_path / "pinf.json"
    code, out, err = run(capsys, "synthesize", "--k0", "0", "--k1", "Z", "-o", str(out_path))
    assert code == 0
    res = json.loads(out)
    assert res["case"] == "ii" and res["verified"] is True
    assert res["k0"] == "0" and res["k1"] == "Z"

    code, out, _ = run(capsys, "colimit", str(out_path), "--window", "2")
    assert code == 0
    data = json.loads(out)
    assert (data["k0"], data["k1"], data["stabilized"]) == ("0", "Z", True)

    code, out, _ = run(capsys, "check", str(out_path))
    assert code == 0 and json.loads(out)["pass"] is True


def test_synthesize_usage_error_on_torsion_k1(capsys):
    code, _, err = run(capsys, "synthesize", "--k0", "Z", "--k1", "Z/2")
    assert code == 2
    assert "free" in err


def test_synthesize_trivial_pair_is_a_usage_error(capsys):
    code, out, err = run(capsys, "synthesize", "--k0", "0", "--k1", "0")
    assert (code, out) == (2, "")
    assert err == "usage error: the trivial pair (0, 0) is not realized by this construction\n"


def test_check_short_chain_skips_b2(capsys, tmp_path):
    path = write(
        tmp_path,
        "short.json",
        {
            "vertices": ["u", "v", "w"],
            "edges": [
                {"id": "g", "from": "v", "to": "u"},
                {"id": "lv", "from": "v", "to": "v"},
                {"id": "h", "from": "u", "to": "v"},
                {"id": "hw", "from": "u", "to": "w"},
                {"id": "lw", "from": "w", "to": "w"},
                {"id": "back", "from": "w", "to": "v"},
            ],
            "infinite_vertices": ["u"],
            "layers": [["u", "v"], ["u", "v", "w"]],
        },
    )
    code, out, _ = run(capsys, "check", path)
    data = json.loads(out)
    assert data["b2"].startswith("skipped")
    # the verdict then reflects the layer conditions alone
    assert code == 0 and data["pass"] is True


def test_synthesize_chain_violating_a1_fails_check(capsys, tmp_path):
    path = write(
        tmp_path,
        "bad_chain.json",
        {
            "vertices": ["u", "v"],
            "edges": [
                {"id": "lv1", "from": "v", "to": "v"},
                {"id": "lv2", "from": "v", "to": "v"},
                {"id": "g", "from": "u", "to": "v"},
                {"id": "h", "from": "v", "to": "u"},
            ],
            "infinite_vertices": ["u"],
            "layers": [["v"], ["u", "v"]],
        },
    )
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    data = json.loads(out)
    assert data["conditions"]["a1"] is False
    assert "u" in data["witnesses"]["a1"]


def chain_data(edges, infinite, layers):
    return {
        "vertices": sorted(layers[-1]),
        "edges": [{"id": e, "from": o, "to": t} for e, o, t in edges],
        "infinite_vertices": infinite,
        "layers": layers,
    }


@pytest.mark.parametrize("case", ["long", "failing", "short"])
def test_check_runs_layer_conditions_once(capsys, tmp_path, monkeypatch, case):
    if case == "long":
        path = str(tmp_path / "chain.json")
        assert run(capsys, "synthesize", "--k0", "Z/2", "--k1", "Z^2", "--depth", "6", "-o", path)[0] == 0
        argv, want_code, want_b2 = ("check", path), 0, None
    elif case == "failing":
        # u outside layer 0 fails (a1); window 1 makes the three layers long
        # enough for the b2 check
        edges = [("lv1", "v", "v"), ("lv2", "v", "v"), ("g", "u", "v"), ("h", "v", "u")]
        path = write(tmp_path, "chain.json", chain_data(edges, ["u"], [["v"], ["u", "v"], ["u", "v"]]))
        argv, want_code, want_b2 = ("check", path, "--window", "1"), 1, "skipped: layer conditions failed"
    else:
        edges = [("g", "v", "u"), ("lv", "v", "v"), ("h", "u", "v"), ("hw", "u", "w"), ("lw", "w", "w"), ("back", "w", "v")]
        path = write(tmp_path, "chain.json", chain_data(edges, ["u"], [["u", "v"], ["u", "v", "w"]]))
        argv, want_code, want_b2 = ("check", path), 0, "skipped: prefix too short for the window"
    calls = []
    # the package binds the name ``ktheory`` to the function, so look the
    # modules up by name
    graphs_mod = importlib.import_module("graphck.graphs")
    orig = graphs_mod.check_condition_a

    def counting(chain):
        calls.append(len(chain))
        return orig(chain)

    for name in ("graphs", "ktheory", "cli"):
        monkeypatch.setattr(importlib.import_module(f"graphck.{name}"), "check_condition_a", counting)
    code, out, _ = run(capsys, *argv)
    data = json.loads(out)
    assert code == want_code and data["pass"] is (want_code == 0)
    if want_b2 is None:
        assert data["b2"]["passed"]
    else:
        assert data["b2"] == want_b2
    assert len(calls) == 1


def test_window_below_one_is_a_usage_error(capsys, tmp_path, monkeypatch):
    passing = str(tmp_path / "passing.json")
    assert run(capsys, "synthesize", "--k0", "Z/2", "--k1", "Z^2", "--depth", "6", "-o", passing)[0] == 0
    # u outside layer 0 fails (a1)
    edges = [("lv1", "v", "v"), ("lv2", "v", "v"), ("g", "u", "v"), ("h", "v", "u")]
    failing = write(tmp_path, "failing.json", chain_data(edges, ["u"], [["v"], ["u", "v"], ["u", "v"]]))
    assert [run(capsys, cmd, failing, "--window", "1")[0] for cmd in ("check", "colimit")] == [1, 1]
    # the window is refused before the file is read
    monkeypatch.setattr(importlib.import_module("graphck.cli"), "load_graph", lambda path: pytest.fail("file loaded"))
    for command in ("check", "colimit"):
        for window in ("0", "-1"):
            for path in (passing, failing):
                code, out, err = run(capsys, command, path, "--window", window)
                assert (code, out) == (2, "")
                assert err == f"usage error: --window must be at least 1, got {window}\n"


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("layers", ["passing", "failing"])
def test_colimit_on_a_chain_too_short_for_the_window_is_a_usage_error(capsys, tmp_path, monkeypatch, layers, force):
    if layers == "passing":
        path = str(tmp_path / "passing.json")
        assert run(capsys, "synthesize", "--k0", "Z/2", "--k1", "Z^2", "--depth", "6", "-o", path)[0] == 0
    else:
        # u outside layer 0 fails (a1)
        edges = [("lv1", "v", "v"), ("lv2", "v", "v"), ("g", "u", "v"), ("h", "v", "u")]
        path = write(tmp_path, "failing.json", chain_data(edges, ["u"], [["v"], ["u", "v"], ["u", "v"]]))
    with open(path, encoding="utf-8") as fh:
        nlayers = len(json.load(fh)["layers"])
    monkeypatch.setattr(
        importlib.import_module("graphck.ktheory"), "check_condition_a", lambda chain: pytest.fail("chain checked")
    )
    window = str(nlayers - 1)
    code, out, err = run(capsys, "colimit", path, "--window", window, *(["--force"] if force else []))
    assert (code, out) == (2, "")
    assert err == f"usage error: chain of length {nlayers} is too short for window {window}\n"


@pytest.fixture
def empty_first_layer(tmp_path):
    return write(
        tmp_path,
        "empty_layer.json",
        {
            "vertices": ["a"],
            "edges": [{"id": "l1", "from": "a", "to": "a"}, {"id": "l2", "from": "a", "to": "a"}],
            "infinite_vertices": [],
            "layers": [[], ["a"], ["a"], ["a"]],
        },
    )


def test_check_reports_empty_layer(capsys, empty_first_layer):
    code, out, _ = run(capsys, "check", empty_first_layer)
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False and data["conditions"]["a2"] is False
    assert data["witnesses"] == {"a2": "layer 0 is empty"}


def test_colimit_force_runs_past_empty_layer(capsys, empty_first_layer):
    code, _, err = run(capsys, "colimit", empty_first_layer)
    assert code == 1 and "a2" in err
    code, out, _ = run(capsys, "colimit", empty_first_layer, "--force")
    assert code == 0
    data = json.loads(out)
    assert (data["k0"], data["k1"], data["stabilized"], data["forced"]) == ("0", "0", True, True)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"layers": [[1]]}, "'layers' must be an array of arrays of strings"),
        ({"layers": [["1"]], "infinite_vertices": [1]}, "'infinite_vertices' must be an array of strings"),
        ({"relation_exempt": [1]}, "'relation_exempt' must be an array of strings"),
    ],
)
def test_non_string_vertex_items_exit_two(capsys, tmp_path, fields, message):
    edges = [{"id": "l1", "from": "1", "to": "1"}, {"id": "l2", "from": "1", "to": "1"}]
    path = write(tmp_path, "bad.json", {"vertices": ["1"], "edges": edges, **fields})
    code, out, err = run(capsys, "check", path)
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"


def test_ktheory_at_layer(capsys, tmp_path):
    code, out, _ = run(capsys, "synthesize", "--k0", "Z", "--k1", "Z^2", "-o", str(tmp_path / "c.json"))
    assert code == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "ktheory", str(tmp_path / "c.json"), "--toeplitz", "--at", "1")
    assert code == 0
    data = json.loads(out)
    assert data["k1"] == "Z^2"


@pytest.mark.parametrize(
    "edge",
    [
        {"id": "e", "from": ["a"], "to": "a"},
        {"id": {"k": 1}, "from": "a", "to": "a"},
        {"id": "e", "from": "a", "to": None},
        {"id": 7, "from": "a", "to": "a"},
    ],
)
@pytest.mark.parametrize("command", ["ktheory", "les-check", "check"])
def test_non_string_edge_fields_exit_two(capsys, tmp_path, edge, command):
    path = write(tmp_path, "bad.json", {"vertices": ["a"], "edges": [edge], "relation_exempt": []})
    code, out, err = run(capsys, command, path)
    assert code == 2 and out == ""
    assert err == "input error: edge #0: id, from and to must be strings\n"


def test_les_check_rejects_ids_equal_after_normalization(capsys, tmp_path):
    # ids 1 and "1" would both name the edge "1"
    edges = [{"id": 1, "from": "a", "to": "b"}, {"id": "1", "from": "b", "to": "a"}]
    path = write(tmp_path, "dup.json", {"vertices": ["a", "b"], "edges": edges})
    code, out, err = run(capsys, "les-check", path)
    assert code == 2 and out == ""
    assert err.startswith("input error: edge #0")


def test_main_twice_in_one_process_is_independent(capsys, tmp_path, loop_with_exempt):
    # one parser serves every call; flags and defaults of one call must not
    # leak into the next
    chain = tmp_path / "chain.json"
    assert run(capsys, "synthesize", "--k0", "Z^2", "--k1", "Z", "--depth", "4", "-o", str(chain))[0] == 0
    calls = [
        ("ktheory", loop_with_exempt, "--toeplitz"),
        ("ktheory", loop_with_exempt),
        ("colimit", str(chain), "--window", "1"),
        ("colimit", str(chain)),
        ("boundary", loop_with_exempt, "--class", "1"),
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert [run(capsys, *argv) for argv in reversed(calls)] == first[::-1]
    assert json.loads(first[0][1])["k1"] == "0" and json.loads(first[1][1])["k1"] == "Z"
    assert json.loads(first[2][1])["window"] == 1 and json.loads(first[3][1])["window"] == 2
    assert all(code == 0 for code, _, _ in first)


def test_byte_determinism(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "synthesize", "--k0", "Z/3", "--k1", "Z", "-o", str(a))
    out1 = capsys.readouterr().out
    run(capsys, "synthesize", "--k0", "Z/3", "--k1", "Z", "-o", str(b))
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["ktheory", "les-check"])
def test_a_smith_core_above_the_bound_exits_two_and_names_its_shape(capsys, tmp_path, command):
    # three loops at each vertex make the relation matrix 2I: no unit entry
    # for the presolve, so the whole 201x201 matrix is the core
    verts = [f"v{i}" for i in range(201)]
    edges = [{"id": f"l{i}_{k}", "from": v, "to": v} for i, v in enumerate(verts) for k in range(3)]
    path = write(tmp_path, "loops.json", {"vertices": verts, "edges": edges, "relation_exempt": []})
    start = time.perf_counter()
    code, out, err = run(capsys, command, path)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert "201x201 core" in err and "bound of 40000 cells" in err


def _random_full_graph(n, outdeg):
    """A full-relation graph drawn from ``random.Random(1)`` as the benchmark
    draws its large graphs: ``outdeg`` edges from each vertex to uniform targets."""
    rng = random.Random(1)
    verts = [f"v{i:03d}" for i in range(n)]
    edges = [
        {"id": f"e{i * outdeg + k:04d}", "from": verts[i], "to": rng.choice(verts)}
        for i in range(n)
        for k in range(outdeg)
    ]
    return {"vertices": verts, "edges": edges, "relation_exempt": []}


def test_a_presolve_above_the_fill_bound_exits_two_within_five_seconds(capsys, tmp_path):
    # the 10,000 x 3 presolve writes 81 million entries, and about 15 s,
    # before its 1372x1372 core is refused; it stops at the fill bound
    path = write(tmp_path, "big.json", _random_full_graph(10_000, 3))
    start = time.perf_counter()
    code, out, err = run(capsys, "ktheory", path)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == (
        "error: the Smith form of a 10000x10000 matrix writes more than 2000000 entries in its presolve, "
        "above the fill bound\n"
    )
    # 1,500 x 3 writes about 1 million, under the fill bound: its core is refused
    code, out, err = run(capsys, "ktheory", write(tmp_path, "mid.json", _random_full_graph(1_500, 3)))
    assert (code, out) == (2, "")
    assert "1500x1500 matrix leaves a 202x202 core" in err and "bound of 40000 cells" in err


def _emitted(value, emit=cli._emit) -> str:
    """What ``emit``, by default ``cli._emit`` as first imported, writes for ``value``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(value)
    return out.getvalue()


JSON_TEXT = st.text() | st.sampled_from(["", "é", "日本", '"', "\\", "\n\t\x00\x1f\x7f", "\u2028", "\ud800", '"é\n"'])
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200).flatmap(lambda x: st.sampled_from([x, -x]))
    | st.floats()
    | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3) | st.booleans() | st.none(), inner, max_size=3),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
@example(value={"k0": "Z + Z/2", "k0_classes": {"é\n": [1, 0], "\"": []}, "k1_basis": [[-(2**70), 2**64]], "x": {}})
def test_emit_writes_what_json_dumps_writes(value):
    assert _emitted(value) == json.dumps(value, ensure_ascii=False, indent=2) + "\n"


def test_emit_writes_each_command_payload_as_json_dumps_does(capsys, tmp_path, monkeypatch):
    payloads = []
    emit = cli._emit

    def recording(data):
        payloads.append((data, _emitted(data, emit)))
        emit(data)

    monkeypatch.setattr(cli, "_emit", recording)
    chain = str(tmp_path / "chain.json")
    graph = write(
        tmp_path,
        "g.json",
        {
            "vertices": ["é", "b\"q", "c"],
            "edges": [
                {"id": "l", "from": "é", "to": "é"},
                {"id": "m", "from": "é", "to": "b\"q"},
                {"id": "n", "from": "b\"q", "to": "c"},
                {"id": "o", "from": "c", "to": "é"},
            ],
            "relation_exempt": ["c"],
        },
    )
    argvs = [
        ("synthesize", "--k0", "Z/2", "--k1", "Z^3", "--depth", "4", "-o", chain),
        ("check", chain),
        ("colimit", chain),
        ("ktheory", chain, "--at", "1"),
        ("check", graph),
        ("ktheory", graph, "--toeplitz"),
        ("boundary", graph, "--class=0,0,0"),
        ("les-check", graph),
    ]
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1) and out == payloads[-1][1]
    assert len(payloads) == len(argvs)
    for data, text in payloads:
        assert text == json.dumps(data, ensure_ascii=False, indent=2) + "\n"


def test_lab_csv_deterministic(capsys):
    code, out1, _ = run(capsys, "lab", "straighten", "--trials", "5", "--seed", "3")
    assert code == 0
    code, out2, _ = run(capsys, "lab", "straighten", "--trials", "5", "--seed", "3")
    assert out1 == out2
    assert out1.startswith("t,defect_name,value\n")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_lab_straighten_rejects_no_trials(capsys, trials):
    code, out, err = run(capsys, "lab", "straighten", "--trials", trials)
    assert code == 2 and out == ""
    assert "--trials must be at least 1" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("straighten", "--seed", "-1"), "usage error: --seed must be non-negative, got -1"),
        (("family", "--seed", "-1"), "usage error: --seed must be non-negative, got -1"),
        (("w", "--scenario", "nope"), "usage error: unknown scenario 'nope'"),
        (("family", "--scenario", "nope"), "usage error: unknown scenario 'nope'"),
        (("w", "--t", "abc"), "usage error: --t must be a comma-separated list of floats"),
    ],
    ids=["straighten_seed", "family_seed", "w_scenario", "family_scenario", "w_t"],
)
def test_lab_usage_errors_exit_two(capsys, argv, message):
    code, out, err = run(capsys, "lab", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_lab_w_csv(capsys):
    code, out, _ = run(capsys, "lab", "w", "--scenario", "case_ii_blocks")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,defect_name,value"
    assert any(line.startswith("0.99,wsw_vs_formula") for line in lines)


@pytest.mark.parametrize("t", ["nan", "inf", "2", "0.5,-0.1"])
def test_lab_w_rejects_t_outside_the_unit_interval(capsys, t):
    code, out, err = run(capsys, "lab", "w", "--t", t)
    assert code == 2 and out == ""
    assert "usage error: --t must lie in [0, 1)" in err


def test_lab_w_accepts_t_at_the_ends_of_the_unit_interval(capsys):
    code, out, _ = run(capsys, "lab", "w", "--t", "0,0.999")
    assert code == 0
    assert {line.split(",")[0] for line in out.strip().splitlines()[1:]} == {"0.0", "0.999"}


def test_lab_family_csv(capsys):
    code, out, _ = run(capsys, "lab", "family", "--scenario", "unitary_extension")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    worst = max(float(v) for _, name, v in rows if name.startswith("residual_"))
    assert worst <= 1e-10


@pytest.mark.parametrize(
    "expr0,expr1",
    [
        ("Z^2 + Z/2", "Z^2"),
        ("0", "Z^2"),
        ("Z/2 + Z/4", "Z"),
        ("Z^3 + Z/9", "Z"),
        ("Z/3", "0"),
        (f"Z/{2**127 - 1}", "0"),
        (f"Z + Z/{10**30}", "Z^2"),
        (f"Z^3 + Z/{10**30}", "Z"),
    ],
)
def test_synthesize_then_colimit_reproduces_request(capsys, tmp_path, expr0, expr1):
    out_path = tmp_path / "chain.json"
    code, out, _ = run(capsys, "synthesize", "--k0", expr0, "--k1", expr1, "--depth", "4", "-o", str(out_path))
    assert code == 0
    res = json.loads(out)
    assert res["verified"] is True
    if res["case"] == "i":
        code, out, _ = run(capsys, "ktheory", str(out_path))
    else:
        code, out, _ = run(capsys, "colimit", str(out_path), "--window", "2")
    assert code == 0
    data = json.loads(out)
    assert data["k0"] == res["k0"] and data["k1"] == res["k1"]


# ---------------------------------------------------------------------------
# Any JSON value as input
# ---------------------------------------------------------------------------

# a lone surrogate loads as a name but cannot be encoded on output
VERTEX = st.sampled_from(["a", "b", "c", "\ud800"])
FIELDS = ("vertices", "edges", "relation_exempt", "layers", "infinite_vertices", "id", "from", "to")
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3) | VERTEX,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=2), children, max_size=5),
    max_leaves=12,
)
EDGE = st.fixed_dictionaries({"id": st.sampled_from(["e", "f", "g", "h"]) | ANY_JSON, "from": VERTEX, "to": VERTEX})
GRAPH_LIKE = st.fixed_dictionaries(
    {"vertices": st.lists(VERTEX, max_size=3), "edges": st.lists(EDGE, max_size=5)},
    optional={"relation_exempt": st.lists(VERTEX, max_size=2), "layers": ANY_JSON, "infinite_vertices": ANY_JSON},
)


@st.composite
def chain_like(draw):
    # nested layers over a vertex list, so that most draws load as chains
    verts = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, len(verts)), min_size=1, max_size=5)))
    names = verts[: cuts[-1]] or ["a"]
    edge = st.tuples(st.sampled_from(names), st.sampled_from(names))
    ends = draw(st.lists(edge, max_size=9))
    return {
        "vertices": verts[: cuts[-1]],
        "layers": [verts[:k] for k in cuts],
        "infinite_vertices": draw(st.lists(st.sampled_from(names), max_size=2, unique=True)),
        "edges": [{"id": f"e{i}", "from": o, "to": t} for i, (o, t) in enumerate(ends)],
    }


FILE_COMMANDS = (
    ("check",),
    ("ktheory",),
    ("ktheory", "--toeplitz", "--at", "0"),
    ("colimit", "--window", "1"),
    ("colimit", "--force"),
    ("boundary", "--class", "1,0"),
    ("les-check",),
)


@settings(max_examples=80, deadline=None)
@given(value=ANY_JSON | GRAPH_LIKE | chain_like())
def test_any_json_file_gives_an_exit_code_and_no_traceback(value):
    # stdout and stderr encode strictly, as a UTF-8 terminal does
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(value, fh)
        for command, *flags in FILE_COMMANDS:
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, path, *flags])
            err.flush()
            assert code in (0, 1, 2), (command, code)
            assert b"Traceback" not in err.buffer.getvalue()


def _run_capped(argv, cap):
    """``python -m graphck.cli`` with ``argv`` under an address-space cap of ``cap`` bytes."""
    src = os.path.dirname(os.path.dirname(importlib.import_module("graphck").__file__))
    env = {
        "PYTHONPATH": src,
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    return subprocess.run(
        [sys.executable, "-m", "graphck.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


@pytest.mark.parametrize(
    "k0,k1",
    [
        ("Z^99999999999999999999", "Z"),
        pytest.param(f"Z/{2**7552 + 2**6285 - 1}", "Z", id="Z/(2^7552+2^6285-1)-Z"),
        ("Z^3000", "Z^3000"),
        ("Z^2000", "0"),
    ],
)
def test_synthesize_refuses_oversized_requests_under_a_memory_cap(k0, k1):
    # under a 1 GB address-space cap, (Z^99999999999999999999, Z) and
    # (Z^3000, Z^3000) ran out of memory with a traceback (a name per rank,
    # an equal-rank graph with quadratically many edges); the depth-6 chain
    # for (Z^2000, 0) has only 116,004 edges, but verifying it would hold
    # about 40,000 vertices x 2,000 dense class coordinates per layer.  The
    # torsion order is the smallest refused for (Z/n, Z): 21,536 edges +
    # 7,585 vertices x (8 layers + 2 + 119 words of its 7,553 bits) =
    # 1,000,001.  Each refusal needs 19 MB of address space, what the CLI
    # needs to start, so the 48 MB cap leaves 29 MB and a refusal must come
    # before the engine builds anything sizable
    proc = _run_capped(["synthesize", "--k0", k0, "--k1", k1], 48 << 20)
    assert proc.returncode == 2, proc.stderr
    assert "than the bound" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args,cap_mb,digest",
    [
        # 22,462 edges and 6.3 MB of JSON; the run needs 91 MB of address
        # space, the most of the three, and the cap leaves 25 MB
        (("Z^57", "0", 64), 116, "19380821e2d1102f907c5e665caf8056138c81c7dd82bb169df09d942d799b7d"),
        # 8.8 MB of JSON, the largest admitted file: 494 layers list their
        # vertices; the run needs 53 MB, and the cap leaves 27 MB
        (("Z", "Z^2", 494), 80, "c2e462c816d3dbef2fd922fd6be2f536d260f50502a4374870564d5f4a825d13"),
        # 101 edges; the run needs 19 MB, no more than the CLI needs to
        # start, and the cap leaves 25 MB
        (("Z/999000", "0", 6), 44, "0e9044ba4fb6ae6743a5bbd01c1fb9a1e46c164808e80257e882ba18bbf5ed0c"),
    ],
    ids=["Z^57-0-depth64", "Z-Z^2-depth494", "Z/999000-0"],
)
def test_synthesize_writes_its_output_file_under_a_memory_cap(tmp_path, args, cap_mb, digest):
    # what each run needs was measured on x86-64 with Python 3.11; the
    # exact commands load no numpy, so no cap depends on BLAS threads
    k0, k1, depth = args
    path = tmp_path / "graph.json"
    argv = ["synthesize", "--k0", k0, "--k1", k1, "--depth", str(depth), "-o", str(path)]
    proc = _run_capped(argv, cap_mb << 20)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_synthesize_nearly_equal_ranks_within_a_memory_cap():
    # the admitted chain request of nearly equal ranks at its default depth
    # needs 133 MB of address space.  The cap leaves 27 MB, so a regression
    # of 45 MB, as large as holding a dense copy of every class-map V column
    # beside the classes built from it, runs out of memory
    proc = _run_capped(["synthesize", "--k0", "Z^975", "--k1", "Z^976"], 160 << 20)
    assert proc.returncode == 0, proc.stderr
    assert '"verified": true' in proc.stdout


def test_a_request_that_runs_out_of_memory_exits_2_with_one_line():
    # the CLI starts in 19 MB of address space and this request needs 133
    # MB, so under the 80 MB cap it runs out of memory part way, 61 MB past
    # start-up and 53 MB short of its need; the one stderr line rules out a
    # failure at start-up
    proc = _run_capped(["synthesize", "--k0", "Z^975", "--k1", "Z^976"], 80 << 20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: out of memory: the request does not fit in the memory this process may use\n"
    assert proc.stdout == ""


# Every usage and input error, one row per case: the arguments, with {graph}
# for a finite graph file, {chain} for a two-layer chain file, {bad_json},
# {bad_utf8} and {dup} for malformed files, and the start of the one stderr line.
_ERROR_TABLE = [
    (("check", "{chain}", "--window", "0"), "usage error: --window must be at least 1, got 0"),
    (("colimit", "{chain}", "--window", "0"), "usage error: --window must be at least 1, got 0"),
    (("colimit", "{chain}"), "usage error: chain of length 2 is too short for window 2"),
    (("ktheory", "{graph}", "--at", "0"), "input error: --at only applies to chain files"),
    (("ktheory", "{chain}", "--at", "2"), "input error: layer 2 out of range for a chain of length 2"),
    (("ktheory", "{chain}", "--at", "-1", "--toeplitz"), "input error: layer -1 out of range"),
    (("boundary", "{graph}", "--class", "x"), "input error: --class must be a comma-separated integer vector"),
    *(
        (("boundary", "{graph}", f"--class={cls}"), "input error: --class must be a comma-separated integer vector")
        for cls in ("1_0", "+1", " 1", "-", "\u0661", "-\u0663")
    ),
    (("synthesize", "--k0", "Z^", "--k1", "Z"), "usage error: syntax error in term 'Z^'"),
    (("synthesize", "--k0", "Z^1_0", "--k1", "Z"), "usage error: syntax error in term 'Z^1_0'"),
    (("synthesize", "--k0", "Z^ 3", "--k1", "Z"), "usage error: syntax error in term 'Z^ 3'"),
    (("synthesize", "--k0", "Z", "--k1", "Z/ 4"), "usage error: syntax error in term 'Z/ 4'"),
    (("synthesize", "--k0", "Z/-3", "--k1", "Z"), "usage error: syntax error in term 'Z/-3'"),
    (("synthesize", "--k0", "Z^\t2", "--k1", "Z"), "usage error: syntax error in term 'Z^\\t2'"),
    (("synthesize", "--k0", "Z^\u0661", "--k1", "Z"), "usage error: syntax error in term 'Z^\u0661'"),
    (("synthesize", "--k0", "Z/\u0663", "--k1", "Z"), "usage error: syntax error in term 'Z/\u0663'"),
    (("synthesize", "--k0", "0", "--k1", "0"), "usage error: the trivial pair (0, 0) is not realized"),
    (("synthesize", "--k0", "Z^3000", "--k1", "Z^3000"), "usage error: the construction would build more edges"),
    (("lab", "straighten", "--trials", "0"), "usage error: --trials must be at least 1, got 0"),
    (("lab", "straighten", "--seed", "-1"), "usage error: --seed must be non-negative, got -1"),
    (("lab", "w", "--scenario", "nope"), "usage error: unknown scenario 'nope'"),
    (("lab", "w", "--t", "abc"), "usage error: --t must be a comma-separated list of floats"),
    (("lab", "w", "--t", "1.5"), "usage error: --t must lie in [0, 1), got 1.5"),
    (("lab", "family", "--scenario", "nope"), "usage error: unknown scenario 'nope'"),
    (("lab", "family", "--seed", "-1"), "usage error: --seed must be non-negative, got -1"),
]
_ERROR_TABLE += [
    ((command, "{" + file + "}", *extra), prefix)
    for file, prefix in (
        ("bad_json", "input error: {bad_json}: invalid JSON at line 1 column 2"),
        ("bad_utf8", "input error: {bad_utf8}: not UTF-8 text at byte 0"),
        ("dup", "input error: duplicate vertex 'a'"),
    )
    for command, *extra in (("check",), ("ktheory",), ("colimit",), ("boundary", "--class", "1"), ("les-check",))
]

# what the CLI reaches past its argument and file checks, by the module each
# name is read from when a command runs: the lab handlers import the lab then
_ENGINE = {
    "graphck.cli": (
        "check_condition_a", "check_condition_b2", "every_cycle_has_exit", "is_cycle", "is_irreducible",
        "boundary_map", "chain_ktheory_report", "ktheory", "les_check", "synthesize",
    ),
    "graphck.lab": ("condition_o_residuals", "lemma36_w", "partial_isometry_defect", "straighten", "straighten_family"),
    "graphck.scenarios": ("family_scenario", "injected_defect_trial", "lemma36_scenario"),
}


@pytest.mark.parametrize("argv,prefix", _ERROR_TABLE, ids=[" ".join(argv) for argv, _ in _ERROR_TABLE])
def test_every_usage_and_input_error_exits_two_before_any_engine_call(capsys, tmp_path, monkeypatch, argv, prefix):
    edges = [("g", "v", "u"), ("lv", "v", "v"), ("h", "u", "v"), ("hw", "u", "w"), ("lw", "w", "w"), ("back", "w", "v")]
    files = {
        "graph": write(tmp_path, "graph.json", {"vertices": ["v"], "edges": [{"id": "l", "from": "v", "to": "v"}]}),
        "chain": write(tmp_path, "chain.json", chain_data(edges, ["u"], [["u", "v"], ["u", "v", "w"]])),
        "dup": write(tmp_path, "dup.json", {"vertices": ["a", "b", "a"], "edges": []}),
    }
    files["bad_json"] = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text("{", encoding="utf-8")
    files["bad_utf8"] = str(tmp_path / "utf16.json")
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 with its byte-order mark
    for module, names in _ENGINE.items():
        for name in names:
            monkeypatch.setattr(f"{module}.{name}", lambda *a, _name=name, **k: pytest.fail(f"{_name} reached"))
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(prefix.format(**files)) and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["ktheory", "les-check", "check"])
@pytest.mark.parametrize("chain", [False, True])
def test_duplicate_vertex_exits_two(capsys, tmp_path, command, chain):
    # a repeated name used to load as one vertex, and ktheory exited 0
    data = {"vertices": ["a", "b", "a"], "edges": [{"id": "l", "from": "a", "to": "a"}]}
    if chain:
        data.update(infinite_vertices=[], layers=[["a"], ["a", "b"]])
    path = write(tmp_path, "dup.json", data)
    code, out, err = run(capsys, command, path)
    assert code == 2 and out == ""
    assert err == "input error: duplicate vertex 'a'\n"


def test_python_dash_m_graphck_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(importlib.import_module("graphck").__file__))
    path = write(tmp_path, "loop.json", {"vertices": ["v"], "edges": [{"id": "l", "from": "v", "to": "v"}]})
    proc = subprocess.run(
        [sys.executable, "-m", "graphck", "ktheory", path],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["k0"], data["k1"]) == ("Z", "Z")



@pytest.mark.parametrize(
    "argv,name", [(("w",), "lemma36_w"), (("straighten", "--trials", "1"), "straighten")], ids=["w", "straighten"]
)
def test_a_lab_error_exits_one_with_one_line(capsys, monkeypatch, argv, name):
    from graphck.lab import LabError

    def fail(*args, **kwargs):
        raise LabError("injected failure")

    monkeypatch.setattr(f"graphck.lab.{name}", fail)
    assert run(capsys, "lab", *argv) == (1, "", "lab error: injected failure\n")


# imports graphck, runs every exact command and then a lab command, and
# prints which of the lab's modules each step left loaded
_LAB_MODULES_LOADED = """
import contextlib, io, sys
import graphck
from graphck.cli import main

def loaded(step):
    print(step, *(m for m in ("numpy", "statistics", "graphck.lab", "graphck.scenarios") if m in sys.modules))

graph, chain = sys.argv[1:]
loaded("import")
for argv in (
    ["synthesize", "--k0", "Z", "--k1", "Z^2", "-o", chain],
    ["check", chain],
    ["colimit", chain],
    ["check", graph],
    ["ktheory", graph],
    ["boundary", graph, "--class=0"],
    ["les-check", graph],
    ["lab", "w", "--t", "0.5"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    loaded(f"{argv[0]}:{code}")
"""


def test_only_lab_commands_load_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(importlib.import_module("graphck").__file__))
    loops = [{"id": "l1", "from": "v", "to": "v"}, {"id": "l2", "from": "v", "to": "v"}]
    graph = write(tmp_path, "loops.json", {"vertices": ["v"], "edges": loops, "relation_exempt": ["v"]})
    proc = subprocess.run(
        [sys.executable, "-c", _LAB_MODULES_LOADED, graph, str(tmp_path / "chain.json")],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import", "synthesize:0", "check:0", "colimit:0", "check:0", "ktheory:0", "boundary:0", "les-check:0",
        "lab:0 numpy graphck.lab graphck.scenarios",
    ]

PINNED_SYNTH_CHAIN = """\
{
  "type": "chain",
  "passed": true,
  "conditions": {
    "a1": true,
    "a2": true,
    "a3": true,
    "a4": true,
    "a5": true,
    "a6": true
  },
  "witnesses": {},
  "b2": {
    "passed": true,
    "matches": {
      "a_1_3": "a_1_2",
      "b_1_3": "b_1_2"
    },
    "failures": {},
    "unchecked": [
      "a_1_4",
      "a_1_5",
      "b_1_4",
      "b_1_5"
    ]
  },
  "pass": true
}
"""

PINNED_A1_CHAIN = """\
{
  "type": "chain",
  "passed": false,
  "conditions": {
    "a1": false,
    "a2": true,
    "a3": true,
    "a4": false,
    "a5": true,
    "a6": false
  },
  "witnesses": {
    "a1": "infinite-valence vertex 'u' not in layer 0",
    "a4": "edge 'h' leaves layer 0 from finite-valence vertex 'v'",
    "a6": "vertex 'u' emits no edge into the new part of layer 1"
  },
  "b2": "skipped: layer conditions failed",
  "pass": false
}
"""

PINNED_EMPTY_LAYER = """\
{
  "type": "chain",
  "passed": false,
  "conditions": {
    "a1": true,
    "a2": false,
    "a3": true,
    "a4": true,
    "a5": true,
    "a6": true
  },
  "witnesses": {
    "a2": "layer 0 is empty"
  },
  "b2": "skipped: layer conditions failed",
  "pass": false
}
"""

PINNED_LES_PASS = """\
{
  "passed": true,
  "nodes": {
    "coker_ideal_map_is_k0_full": true,
    "exact_at_ideal": true,
    "exact_at_k0_toeplitz": true,
    "exact_at_k1_full": true
  },
  "terms": {
    "k1_toeplitz": "0",
    "k1_full": "Z",
    "ideal_k0": "Z",
    "k0_toeplitz": "Z",
    "k0_full": "Z"
  }
}
"""

# les-check of the same graph with the first index-map column zeroed
PINNED_LES_FAIL = """\
{
  "passed": false,
  "nodes": {
    "coker_ideal_map_is_k0_full": true,
    "exact_at_ideal": false,
    "exact_at_k0_toeplitz": true,
    "exact_at_k1_full": false
  },
  "terms": {
    "k1_toeplitz": "0",
    "k1_full": "Z",
    "ideal_k0": "Z",
    "k0_toeplitz": "Z",
    "k0_full": "Z"
  },
  "witnesses": {
    "exact_at_ideal": {
      "check": "the kernel of the ideal-class map lies in the image of the index map",
      "vector": [
        1
      ]
    },
    "exact_at_k1_full": {
      "check": "the kernel of the index map lies in K1(T)",
      "vector": [
        1
      ]
    }
  }
}
"""

PINNED_SYNTHESIZE = """\
{
  "case": "ii",
  "parameters": {
    "l": 3,
    "p": 2,
    "torsion": [
      2
    ],
    "depth": 6
  },
  "verified": true,
  "k0": "Z/2",
  "k1": "Z^2"
}
"""


def test_check_les_check_and_synthesize_output_is_pinned(
    capsys, tmp_path, monkeypatch, loop_with_exempt, empty_first_layer
):
    """Exit code, stdout and stderr byte for byte, on passing and failing verdicts."""
    from test_ktheory import _zeroing_first_boundary

    synthesized = str(tmp_path / "synth.json")
    assert run(capsys, "synthesize", "--k0", "Z^2", "--k1", "Z", "--depth", "4", "-o", synthesized)[0] == 0
    # u outside layer 0 fails (a1)
    edges = [("lv1", "v", "v"), ("lv2", "v", "v"), ("g", "u", "v"), ("h", "v", "u")]
    a1_failing = write(tmp_path, "a1.json", chain_data(edges, ["u"], [["v"], ["u", "v"]]))
    b2_skipped = "b2: 4 vertices beyond the stabilization window were not checked\n"
    assert run(capsys, "check", synthesized) == (0, PINNED_SYNTH_CHAIN, b2_skipped + "chain: PASS\n")
    assert run(capsys, "check", a1_failing) == (1, PINNED_A1_CHAIN, "chain: FAIL\n")
    assert run(capsys, "check", empty_first_layer) == (1, PINNED_EMPTY_LAYER, "chain: FAIL\n")
    assert run(capsys, "les-check", loop_with_exempt) == (0, PINNED_LES_PASS, "long exact sequence: PASS\n")
    with monkeypatch.context() as m:
        _zeroing_first_boundary(m, 1)
        assert run(capsys, "les-check", loop_with_exempt) == (1, PINNED_LES_FAIL, "long exact sequence: FAIL\n")
    assert run(capsys, "synthesize", "--k0", "Z/2", "--k1", "Z^2") == (
        0,
        PINNED_SYNTHESIZE,
        "case ii: verified=True K = (Z/2, Z^2)\n",
    )


# the case ii layer 1 below, vertex by vertex: the same K0 classes with and
# without --toeplitz
PINNED_CASE_II_K0_CLASSES = {
    "a_1_1": [0, 0, 0, 0], "a_1_2": [0, -1, 0, 0], "a_2_1": [0, 0, 0, 0], "a_2_2": [0, 0, -1, 0],
    "a_3_1": [0, 0, 0, 0], "a_3_2": [0, 0, 0, -1], "b_1_1": [0, 0, 0, 0], "b_1_2": [0, 1, 0, 0],
    "b_2_1": [0, 0, 0, 0], "b_2_2": [0, 0, 1, 0], "b_3_1": [0, 0, 0, 0], "b_3_2": [0, 0, 0, 1],
    "u": [0, 0, 0, 0], "v1": [0, 0, 0, 0], "v2": [0, 0, 0, 0], "v3": [0, 0, 0, 0],
    "w1": [1, 0, 0, 0], "y": [0, 0, 0, 0], "z": [0, 0, 0, 0],
}

PINNED_KTHEORY = {
    "different": {
        "k0": "Z^2",
        "k1": "Z^2",
        "k0_classes": {"v0": [0, 0], "v1": [0, 0], "v2": [0, 0], "v3": [1, 0], "v4": [0, 1]},
        "k1_basis": [[0, 0, 0, 1, 0], [1, 1, 0, 0, 1]],
    },
    "different --toeplitz": {
        "k0": "Z^3",
        "k1": "Z^2",
        "k0_classes": {"v0": [0, 0, 0], "v1": [0, 0, 0], "v2": [1, 0, 0], "v3": [0, 1, 0], "v4": [0, 0, 1]},
        "k1_basis": [[0, 0, 0, 1, 0], [1, 1, 0, 0, 1]],
    },
    "case ii": {
        "k0": "Z^3 + Z/2",
        "k1": "Z^3",
        "k0_classes": PINNED_CASE_II_K0_CLASSES,
        "k1_basis": [
            [0, 0, 0, 0, 0, 0, -1, -1, -1, -1, -1, -1, 1, 1, 0, 0, 0, -1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0],
        ],
    },
    "case ii --toeplitz": {
        "k0": "Z^3 + Z/2",
        "k1": "Z^2",
        "k0_classes": PINNED_CASE_II_K0_CLASSES,
        "k1_basis": [
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0],
        ],
    },
}

PINNED_COLIMIT = {
    "k0": "Z/2",
    "k1": "Z^2",
    "k0_classes": {v: [int(v == "w1")] for v in PINNED_CASE_II_K0_CLASSES},
    "stabilized": True,
    "window": 2,
    "forced": False,
}


def test_ktheory_and_colimit_output_is_pinned(capsys, tmp_path):
    """Exit code, stdout and stderr byte for byte: ``ktheory`` with and without
    --toeplitz on a graph whose two degree-one routes give different bases and
    on a case ii chain layer with an exempt vertex, and ``colimit`` on that
    chain."""
    from test_ktheory import K1_BASES

    different = write(tmp_path, "different.json", json.loads(dump_graph(K1_BASES["different"])))
    chain = str(tmp_path / "chain.json")
    assert run(capsys, "synthesize", "--k0", "Z/2", "--k1", "Z^2", "--depth", "4", "-o", chain)[0] == 0
    assert load_graph(chain).layer_graph(1).relation_exempt == {"u"}
    for key, argv in (("different", (different,)), ("case ii", (chain, "--at", "1"))):
        for flag in ("", " --toeplitz"):
            want = PINNED_KTHEORY[key + flag]
            err = f"K0 = {want['k0']}, K1 = {want['k1']}\n"
            assert run(capsys, "ktheory", *argv, *flag.split()) == (0, json.dumps(want, indent=2) + "\n", err)
    err = "K0 = Z/2, K1 = Z^2, stabilized = True (window 2)\n"
    assert run(capsys, "colimit", chain) == (0, json.dumps(PINNED_COLIMIT, indent=2) + "\n", err)


PINNED_DEEP_COLIMIT = {
    "k0": "Z^2 + Z/3",
    "k1": "Z",
    "k0_classes": {
        "a_1_1": [0, 1, 1],
        **{f"a_1_{j}": [0, 0, 0] for j in range(2, 8)},
        **{f"b_1_{j}": [0, 0, 0] for j in range(1, 8)},
        "u1": [0, 0, 0],
        "v1": [0, -1, -1],
        "v2": [0, 1, 0],
        "w1": [1, 0, 0],
        "y": [0, 0, 1],
        "z": [0, 0, 0],
    },
    "stabilized": True,
    "window": 2,
    "forced": False,
}

PINNED_DEEP_CHECK = {
    "type": "chain",
    "passed": True,
    "conditions": {f"a{i}": True for i in range(1, 7)},
    "witnesses": {},
    "b2": {
        "passed": True,
        "matches": {f"{t}_1_{j}": f"{t}_1_2" for t in "ab" for j in range(3, 8)},
        "failures": {},
        "unchecked": ["a_1_8", "a_1_9", "b_1_8", "b_1_9"],
    },
    "pass": True,
}


def test_colimit_and_check_output_is_pinned_on_a_chain_read_from_layer_two(capsys, tmp_path):
    """Exit code, stdout and stderr byte for byte of ``colimit`` and ``check``
    on an 8-layer case iii chain, whose colimits read only layers 2 to 7."""
    from graphck.abelian import final_stretch

    chain = str(tmp_path / "chain.json")
    assert run(capsys, "synthesize", "--k0", "Z^2 + Z/3", "--k1", "Z", "--depth", "8", "-o", chain)[0] == 0
    assert len(load_graph(chain)) == 8 and final_stretch(8, 2) == (2, 5)
    err = "K0 = Z^2 + Z/3, K1 = Z, stabilized = True (window 2)\n"
    assert run(capsys, "colimit", chain) == (0, json.dumps(PINNED_DEEP_COLIMIT, indent=2) + "\n", err)
    err = "b2: 4 vertices beyond the stabilization window were not checked\nchain: PASS\n"
    assert run(capsys, "check", chain) == (0, json.dumps(PINNED_DEEP_CHECK, indent=2) + "\n", err)
