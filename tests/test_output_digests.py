"""The CLI's exact outputs on a small fixed corpus, pinned by digest.

``scripts/output_digests.py`` digests the CLI families on the benchmark's
inputs, to compare two checkouts.  Here the same families run on a corpus
small enough for every test run: synthesis requests of each case, shallow
and deep, and small random graphs with relation-exempt vertices.  Answers to
fixed inputs change only when a change documents it; a digest that moves
must be re-pinned in that change.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"

SYNTH_REQUESTS = [
    ("Z + Z/2", "Z", 4),
    ("Z/3 + Z/3", "0", 4),
    ("Z", "Z^3", 4),
    ("Z^3 + Z/4", "Z", 4),
    ("Z^2 + Z/9", "0", 10),
    ("0", "Z^2", 10),
    ("Z/2", "Z^3", 16),
    ("Z^3", "0", 16),
]

PINNED = {
    "synthesize": "b4a320297270612b0f469c2e3b57202be0ba98445a7de120f2dc196ba60149b4",
    "check": "14b9205f95eb8173d56c56ff7923537054775b4ed3d034861ccd1b992865b510",
    "colimit": "524aa8df7016759d37dcda221319fe302bf1320c5dfeea42d8f8bb95279d78d4",
    "ktheory-at": "6bb11fc90cc395ead5ea0f67cfdeb098191364d94873d555a0da9693ca1db791",
    "ktheory": "d480e8fc4c79cf9984922bf55369d30b2b0e0d0c997071d87a7c27fcc80c1523",
    "ktheory-toeplitz": "77ddebb2c56d133f29e6af746cb5c9e33d275d53e318bec94426dda252e740b1",
    "les-check": "5881eee68e4ce0dec937c93cf55bed6e24ba1c058706867f4667a6c4934add75",
    "boundary": "6693792aa112d4669dc063d1c50722bdd9a4fa9cd78dda7618f02add24da1b36",
}

INPUT_ERRORS_PINNED = {"input-errors": "8f57131cd619e591afed750b238c72451d608af65d92fce824faef7fbc6b06e7"}

# exact integer output, so it does not depend on the host: a moved digest
# means some Smith form pivots differently
SMITH_PINNED = {"smith": "1d764a74c043ac1a6ea4ffd37035a26021284227432f3fde0755cdab2bfa0c22"}


def graph_texts(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        n = rng.randint(1, 12)
        verts = [f"v{j}" for j in range(n)]
        edges = [{"id": f"e{k}", "from": rng.choice(verts), "to": rng.choice(verts)} for k in range(rng.randint(0, 3 * n))]
        exempt = [v for v in verts if rng.random() < 0.35]
        texts.append(json.dumps({"vertices": verts, "edges": edges, "relation_exempt": exempt}))
    return texts


def load_script(monkeypatch):
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "output_digests", module)
    spec.loader.exec_module(module)
    return module


def test_cli_output_digests_on_a_small_corpus(tmp_path, monkeypatch):
    module = load_script(monkeypatch)
    monkeypatch.chdir(tmp_path)
    got = module.cli_digests(module.load_graphck(), SYNTH_REQUESTS, graph_texts(200, 20261019))
    assert got == PINNED


def test_smith_forms_are_pinned_on_the_small_corpus(monkeypatch):
    module = load_script(monkeypatch)
    assert module.smith_digests(module.load_graphck(), graph_texts(200, 20261019)) == SMITH_PINNED


def test_input_error_messages_are_pinned(tmp_path, monkeypatch):
    module = load_script(monkeypatch)
    monkeypatch.chdir(tmp_path)
    gk = module.load_graphck()
    records = []
    run_cli = module.run_cli

    def recording(gk, argv):
        result = run_cli(gk, argv)
        records.append(json.loads(result[0]))
        return result

    monkeypatch.setattr(module, "run_cli", recording)
    assert module.input_error_digests(gk) == INPUT_ERRORS_PINNED
    # every file but the valid chain is refused by every command, with one
    # line that does not depend on the command
    messages: dict = {}
    for argv, code, out, err in records:
        if argv[1] != "valid-chain.json":
            assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith("input error: ")
            messages.setdefault(argv[1], set()).add(err)
    assert len(messages) == len(module.INPUT_ERRORS) - 1
    assert all(len(m) == 1 for m in messages.values())


def test_against_names_each_family_that_differs_or_is_missing(monkeypatch):
    module = load_script(monkeypatch)
    saved = "workload:a 11\ncheck 22\ncolimit 33\n\n"
    want = module.read_digests(saved)
    assert want == {"workload:a": "11", "check": "22", "colimit": "33"}
    assert module.differences(dict(want), want) == []
    got = {"workload:a": "11", "check": "2f", "boundary": "44"}
    assert module.differences(got, want) == [
        "check differs",
        "colimit missing here",
        "boundary missing from the file",
    ]


def test_against_exits_1_on_a_difference_and_0_on_none(tmp_path, monkeypatch, capsys):
    module = load_script(monkeypatch)
    monkeypatch.setattr(module, "digests", lambda seed: {"check": "22", "colimit": "33"})
    for var in module.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    saved = tmp_path / "parent.txt"
    saved.write_text("check 22\ncolimit 33\n", encoding="utf-8")
    assert module.main(["--seed", "1", "--against", str(saved)]) == 0
    assert capsys.readouterr().out == ""
    saved.write_text("check 22\ncolimit 3f\n", encoding="utf-8")
    assert module.main(["--seed", "1", "--against", str(saved)]) == 1
    assert capsys.readouterr().out == "colimit differs\n"


def test_lab_families_run_each_lab_command_on_the_lab_pass(monkeypatch):
    module = load_script(monkeypatch)
    for name in ("oracle", "workloads"):
        monkeypatch.setitem(sys.modules, name, None)  # dropped again when the test ends
    module.load_perfbench("oracle")
    gk = module.load_graphck()
    requests = module.load_perfbench("workloads").WORKLOADS["lab_numeric"](gk, 1, None).requests
    argvs = module.lab_argvs(1, requests)
    assert [a[1] for a in argvs].count("w") == 3 and [a[1] for a in argvs].count("family") == 12
    records = []
    run_cli = module.run_cli

    def recording(gk, argv):
        result = run_cli(gk, argv)
        records.append(json.loads(result[0]))
        return result

    monkeypatch.setattr(module, "run_cli", recording)
    got = module.lab_digests(gk, argvs)
    assert sorted(got) == ["lab-family", "lab-straighten", "lab-w"]
    assert all(len(d) == 64 for d in got.values())
    for argv, (called, code, out, err) in zip(argvs, records, strict=True):
        assert (called, code, err) == (argv, 0, "") and out.startswith("t,defect_name,value\n")


def test_trials_family_covers_each_straighten_trial_and_its_projections(monkeypatch):
    module = load_script(monkeypatch)
    gk = module.load_graphck()
    trials = [gk.scenarios.injected_defect_trial(seed, 1e-3) for seed in range(3)]
    requests = [
        SimpleNamespace(kind="lab_straighten", payload=trials[:2]),
        SimpleNamespace(kind="lab_w", payload=None),
        SimpleNamespace(kind="lab_straighten", payload=trials[2:]),
    ]
    got = module.trial_digests(requests)
    assert list(got) == ["lab-trials"] and len(got["lab-trials"]) == 64
    assert module.trial_digests([SimpleNamespace(kind="lab_straighten", payload=trials)]) == got
    assert module.trial_digests(requests[2:] + requests[:2]) != got
    for field in ("x", "left_projection", "right_projection"):
        moved = [SimpleNamespace(**vars(t)) for t in trials]
        setattr(moved[1], field, -getattr(moved[1], field))
        assert module.trial_digests([SimpleNamespace(kind="lab_straighten", payload=moved)]) != got


def test_smith_family_reduces_each_graph_toeplitz_and_full_and_transposed(monkeypatch):
    module = load_script(monkeypatch)
    gk = module.load_graphck()
    texts = graph_texts(12, 7)
    shapes = []
    snf = gk.abelian.smith_normal_form

    def recording(m):
        shapes.append((m.rows, m.cols))
        return snf(m)

    monkeypatch.setattr(gk.abelian, "smith_normal_form", recording)
    got = module.smith_digests(gk, texts)
    assert list(got) == ["smith"] and len(got["smith"]) == 64
    want = []
    for text in texts:
        d = json.loads(text)
        n, s = len(d["vertices"]), len(set(d["vertices"]) - set(d["relation_exempt"]))
        want += [(s, n), (n, s), (n, n), (n, n)]
    assert shapes == want
    assert module.smith_digests(gk, texts[:-1]) != got
