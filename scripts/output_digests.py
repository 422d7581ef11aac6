"""SHA-256 digests of graphck's outputs on the benchmark's inputs.

Run from the repository root:

    python3 scripts/output_digests.py --seed 1

It prints one line per family, ``<family> <sha256>``.  Two checkouts that
print the same line for a family gave byte-identical outputs on every input
of that family.  To compare a change with its parent, save the parent's
lines and check the change against them:

    python3 scripts/output_digests.py --seed 1 > parent.txt    # on the parent
    python3 scripts/output_digests.py --seed 1 --against parent.txt    # on the change

With ``--against FILE`` it prints each family whose digest differs from the
file's, or that only one side has, and exits 1 if there is any, else 0.

* ``workload:<name>``: the exact output text of every request in the
  workload's seeded pass, in pass order.  The workload modules are loaded
  from ``perfbench/`` by path and only read.
* ``synthesize``, ``check``, ``colimit``, ``ktheory-at``: ``graphck
  synthesize -o FILE`` on each distinct ``synth_chains`` request, with the
  file it writes, then ``check``, ``colimit`` and ``ktheory --toeplitz`` on
  that file, the last with ``--at N`` at every layer of a chain.
* ``ktheory``, ``ktheory-toeplitz``, ``les-check``, ``boundary``: those
  commands on every ``ktheory_big`` and ``les_small`` graph, ``boundary``
  once per basis vector of the full-relation K1 that ``ktheory`` prints (or
  on the zero vector when there is none).
* ``smith``: the diagonal, the row and column output orders and the row
  and column logs of ``smith_normal_form`` on the relation matrix of every
  ``ktheory_big`` and ``les_small`` graph, Toeplitz (with its exempt
  vertices) and full (with none), and on its transpose.  Every transform
  vector is replayed from those logs, so two checkouts with the same line
  pivot alike, operation for operation.
* ``input-errors``: ``ktheory``, ``les-check``, ``check`` and ``boundary``
  on fixed malformed files (``INPUT_ERRORS``), one for each way the loader
  and the graph and chain builders refuse a file, and a few with two faults
  that pin which check runs first.  These inputs do not depend on the seed.
* ``lab-straighten``, ``lab-w``, ``lab-family``: ``graphck lab straighten
  --seed SEED``, then ``lab w`` on the scenario and t values of each
  ``lab_numeric`` w request and ``lab family`` on the scenario and seed of
  each family request.  These CSVs print residuals at machine precision,
  whose last digits depend on the host's LAPACK, so they compare two
  checkouts on one host and are not pinned.
* ``lab-trials``: the bytes of ``x`` and of the projections ``p`` and ``q``
  of every injected-defect trial in the ``lab_numeric`` straighten
  requests, in pass order.  Like the other lab families it depends on the
  host's LAPACK and is not pinned.

Each CLI call runs in process, on files under fixed relative names in a
scratch directory, and its digest covers its arguments, exit code, stdout
and stderr.
"""

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("synth_chains", "ktheory_big", "les_small", "lab_numeric")
GRAPHCK_MODULES = ("abelian", "graphs", "ktheory", "synthesis", "lab", "scenarios", "cli")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _graph_file(vertices, edges, **fields) -> bytes:
    """A graph file's bytes.  A list of ``edges`` holds (id, from, to) triples
    or raw JSON values; any other ``edges`` is written as it is."""
    if isinstance(edges, list):
        edges = [{"id": e[0], "from": e[1], "to": e[2]} if isinstance(e, tuple) else e for e in edges]
    return json.dumps({"vertices": vertices, "edges": edges, **fields}).encode()


# (file name, file bytes): each file is refused by one check of
# ``graphs.load_graph``, ``graphs.graph_from_json_dict``, ``FiniteGraph`` or
# ``GraphChain``; the ``first-*`` files fail two checks, the first one named.
# ``missing.json`` is never written, and ``valid-chain.json`` is a chain that
# ``les-check`` and ``boundary`` refuse
INPUT_ERRORS = (
    ("bad-json.json", b'{"vertices": ["a"], "edges": [}'),
    ("not-utf8.json", b'{"vertices": ["a\xff"], "edges": []}'),
    ("too-deep.json", b"[" * 100_000 + b"]" * 100_000),
    ("missing.json", None),
    ("not-object.json", b'["a", "b"]'),
    ("no-vertices.json", b'{"edges": []}'),
    ("no-edges.json", b'{"vertices": ["a"]}'),
    ("vertices-not-list.json", _graph_file("a", [])),
    ("vertex-not-string.json", _graph_file(["a", 1], [])),
    ("duplicate-vertex.json", _graph_file(["b", "a", "c", "b", "a"], [])),
    ("edges-not-list.json", _graph_file(["a"], {"id": "e", "from": "a", "to": "a"})),
    ("edge-not-object.json", _graph_file(["a"], [("e", "a", "a"), ["f", "a", "a"]])),
    ("edge-without-to.json", _graph_file(["a"], [{"id": "e", "from": "a"}])),
    ("edge-id-not-string.json", _graph_file(["a"], [(7, "a", "a")])),
    ("edge-from-not-string.json", _graph_file(["a"], [("e", None, "a")])),
    ("edge-to-not-string.json", _graph_file(["a"], [("e", "a", ["a"])])),
    ("duplicate-edge.json", _graph_file(["a", "b"], [("e", "a", "b"), ("f", "b", "a"), ("e", "b", "b")])),
    ("unknown-origin.json", _graph_file(["a"], [("e", "a", "a"), ("f", "z", "a")])),
    ("unknown-terminus.json", _graph_file(["a"], [("e", "a", "z")])),
    ("exempt-not-strings.json", _graph_file(["a"], [], relation_exempt=[0])),
    ("unknown-exempt.json", _graph_file(["a"], [], relation_exempt=["a", "z", "y"])),
    ("layers-missing.json", _graph_file(["a"], [], infinite_vertices=[])),
    ("layers-not-lists.json", _graph_file(["a"], [], layers=["a"])),
    ("infinite-not-strings.json", _graph_file(["a"], [], layers=[["a"]], infinite_vertices=[1])),
    ("no-layers.json", _graph_file([], [], layers=[])),
    ("layers-not-nested.json", _graph_file(["a", "b"], [], layers=[["a"], ["b"]])),
    ("unknown-infinite.json", _graph_file(["a"], [], layers=[["a"]], infinite_vertices=["a", "z"])),
    ("chain-unknown-terminus.json", _graph_file(["a"], [("e", "a", "z")], layers=[["a"]])),
    ("chain-duplicate-edge.json", _graph_file(["a"], [("e", "a", "a"), ("e", "a", "a")], layers=[["a"]])),
    ("vertices-not-layers.json", _graph_file(["a", "b"], [], layers=[["a"]])),
    ("first-duplicate-vertex.json", _graph_file(["a", "a"], "edges", relation_exempt=[1])),
    ("first-edge-shape.json", _graph_file(["a"], [{"id": "e", "to": "a"}, ("f", 1, "a")])),
    ("first-edge-types.json", _graph_file(["a"], [("e", "a", 1), ("e", "a", "z")])),
    ("first-exempt.json", _graph_file(["a"], [("e", "z", "a")], relation_exempt=["z"])),
    ("first-duplicate-edge.json", _graph_file(["a"], [("e", "a", "a"), ("e", "z", "a")])),
    ("first-chain-edges.json", _graph_file(["a", "b"], [("e", "a", "z")], layers=[["a"]])),
    ("valid-chain.json", _graph_file(["a"], [("e", "a", "a"), ("f", "a", "a")], layers=[["a"]])),
)
INPUT_ERROR_COMMANDS = (["ktheory"], ["les-check"], ["check"], ["boundary", "--class=0"])


def load_graphck() -> SimpleNamespace:
    """graphck from this checkout's ``src``, as the namespace the workloads read."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import numpy

    return SimpleNamespace(np=numpy, **{n: importlib.import_module(f"graphck.{n}") for n in GRAPHCK_MODULES})


def load_perfbench(name: str):
    """perfbench/<name>.py, registered under its bare name for its sibling imports."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run_cli(gk, argv: list[str]) -> tuple[bytes, str]:
    """One in-process ``graphck`` call: its digest record and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gk.cli.main(argv)
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()]) + "\n"
    return record.encode(), out.getvalue()


def cli_digests(gk, synth_requests, graph_texts) -> dict[str, str]:
    """Digests of the CLI families on ``(k0, k1, depth)`` synthesis requests
    and graph file texts, run in the current directory."""
    h: dict = defaultdict(hashlib.sha256)
    for i, (k0, k1, depth) in enumerate(synth_requests):
        name = f"synth{i:03d}.json"
        h["synthesize"].update(run_cli(gk, ["synthesize", "--k0", k0, "--k1", k1, "--depth", str(depth), "-o", name])[0])
        h["synthesize"].update(Path(name).read_bytes())
        h["check"].update(run_cli(gk, ["check", name])[0])
        h["colimit"].update(run_cli(gk, ["colimit", name])[0])
        g = gk.graphs.load_graph(name)
        ats = [["--at", str(n)] for n in range(len(g))] if isinstance(g, gk.graphs.GraphChain) else [[]]
        for at in ats:
            h["ktheory-at"].update(run_cli(gk, ["ktheory", name, *at, "--toeplitz"])[0])
    for i, text in enumerate(graph_texts):
        name = f"graph{i:04d}.json"
        Path(name).write_text(text, encoding="utf-8")
        record, out = run_cli(gk, ["ktheory", name])
        h["ktheory"].update(record)
        h["ktheory-toeplitz"].update(run_cli(gk, ["ktheory", name, "--toeplitz"])[0])
        h["les-check"].update(run_cli(gk, ["les-check", name])[0])
        full = json.loads(out)
        for x in full["k1_basis"] or [[0] * len(full["k0_classes"])]:
            h["boundary"].update(run_cli(gk, ["boundary", name, f"--class={','.join(map(str, x))}"])[0])
    return {family: d.hexdigest() for family, d in h.items()}


def input_error_digests(gk) -> dict[str, str]:
    """The ``input-errors`` family's digest, its files written in the current directory."""
    h = hashlib.sha256()
    for name, data in INPUT_ERRORS:
        if data is not None:
            Path(name).write_bytes(data)
        for command in INPUT_ERROR_COMMANDS:
            h.update(run_cli(gk, [command[0], name, *command[1:]])[0])
    return {"input-errors": h.hexdigest()}


def smith_digests(gk, graph_texts) -> dict[str, str]:
    """The ``smith`` family's digest on graph file texts."""
    h = hashlib.sha256()
    for text in graph_texts:
        g = gk.graphs.graph_from_json_dict(json.loads(text))
        for graph in (g, gk.graphs.FiniteGraph(g.vertices, g.edges)):
            m = gk.ktheory.relation_matrix(graph)
            for a in (m, m.transpose()):
                s = gk.abelian.smith_normal_form(a)
                record = [s.diagonal, *map(list, s._orders), *map(list, s._logs)]
                h.update(json.dumps(record).encode() + b"\n")
    return {"smith": h.hexdigest()}


def lab_argvs(seed: int, lab_requests) -> list[list[str]]:
    """The ``graphck lab`` calls of the lab families, from the ``lab_numeric``
    pass's requests; a family request's key ends in its scenario seed."""
    argvs = [["lab", "straighten", "--seed", str(seed)]]
    for req in lab_requests:
        if req.kind == "lab_w":
            scenario, ts = req.payload
            argvs.append(["lab", "w", "--scenario", scenario.name, "--t", ",".join(map(str, ts))])
        elif req.kind == "lab_family":
            argvs.append(["lab", "family", "--scenario", req.payload.name, "--seed", req.key.rsplit(":", 1)[1]])
    return argvs


def lab_digests(gk, argvs) -> dict[str, str]:
    """Digests of ``graphck lab`` calls, one family per lab command."""
    h: dict = defaultdict(hashlib.sha256)
    for argv in argvs:
        h[f"lab-{argv[1]}"].update(run_cli(gk, argv)[0])
    return {family: d.hexdigest() for family, d in h.items()}


def trial_digests(lab_requests) -> dict[str, str]:
    """The ``lab-trials`` family's digest on the ``lab_numeric`` pass's requests."""
    h = hashlib.sha256()
    for req in lab_requests:
        if req.kind == "lab_straighten":
            for t in req.payload:
                h.update(t.x.tobytes() + t.left_projection.tobytes() + t.right_projection.tobytes())
    return {"lab-trials": h.hexdigest()}


def digests(seed: int) -> dict[str, str]:
    """Every family's digest at ``seed``, computed in a scratch directory."""
    gk = load_graphck()
    load_perfbench("oracle")  # workloads imports it by name
    workloads = load_perfbench("workloads")
    out, passes = {}, {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            os.mkdir("pass")
            for name in WORKLOADS:
                passes[name] = workloads.WORKLOADS[name](gk, seed, os.path.abspath("pass"))
                h = hashlib.sha256()
                for req in passes[name].requests:
                    h.update(workloads.KINDS[req.kind][0](gk, req.payload)[0].encode() + b"\n")
                out[f"workload:{name}"] = h.hexdigest()
            synth = {r.key: r.payload for r in passes["synth_chains"].requests}
            big = [gk.graphs.dump_graph(r.payload) for r in passes["ktheory_big"].requests if r.key.endswith(":T")]
            small = [Path(r.payload).read_text(encoding="utf-8") for r in passes["les_small"].requests]
            out.update(cli_digests(gk, synth.values(), big + small))
            out.update(smith_digests(gk, big + small))
            out.update(input_error_digests(gk))
            out.update(lab_digests(gk, lab_argvs(seed, passes["lab_numeric"].requests)))
            out.update(trial_digests(passes["lab_numeric"].requests))
        finally:
            os.chdir(here)
    return out


def read_digests(text: str) -> dict[str, str]:
    """The ``<family> <digest>`` lines this script prints, as a dict."""
    return dict(line.split() for line in text.splitlines() if line.strip())


def differences(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """One line per family whose digest differs or that only one side has."""
    lines = []
    for family in [*want, *(f for f in got if f not in want)]:
        if family not in got:
            lines.append(f"{family} missing here")
        elif family not in want:
            lines.append(f"{family} missing from the file")
        elif got[family] != want[family]:
            lines.append(f"{family} differs")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Print SHA-256 digests of graphck's outputs on the benchmark inputs.")
    ap.add_argument("--seed", type=int, required=True, help="workload seed, as for perfbench/run.py")
    ap.add_argument("--against", metavar="FILE", help="compare with the lines this script printed on another checkout")
    args = ap.parse_args(argv)
    want = read_digests(Path(args.against).read_text(encoding="utf-8")) if args.against else None
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # as the benchmark sets them, before numpy is imported
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    got = digests(args.seed)
    if want is None:
        for family, digest in got.items():
            print(family, digest)
        return 0
    lines = differences(got, want)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
