"""Command-line interface tests: exit codes, formats, determinism."""

import contextlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphck.cli import main


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
    assert err == f"error: chain of length {nlayers} is too short for window {window}\n"


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


def _address_space_cap():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "k0,k1",
    [("Z^99999999999999999999", "Z"), ("Z/99999999999999999999999", "Z"), ("Z^3000", "Z^3000")],
)
def test_synthesize_refuses_oversized_requests_under_a_memory_cap(k0, k1):
    # under a 1 GB address-space cap these ran out of memory with a traceback
    # (a name per rank, n parallel edges, quadratically many edges)
    src = os.path.dirname(os.path.dirname(importlib.import_module("graphck").__file__))
    env = {"PYTHONPATH": src, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "graphck.cli", "synthesize", "--k0", k0, "--k1", k1],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        preexec_fn=_address_space_cap,
    )
    assert proc.returncode == 2, proc.stderr
    assert "than the bound" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


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
        env={"PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["k0"], data["k1"]) == ("Z", "Z")
