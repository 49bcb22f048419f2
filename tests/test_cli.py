import hashlib
import json
import os
import time

import pytest

from permlab.cli import main
from permlab.seeds import derive, rng_for


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_seed_derivation_stable():
    assert derive(0, "gen") == derive(0, "gen")
    assert derive(0, "gen") != derive(0, "sigma")
    assert derive(1, "gen") != derive(0, "gen")
    assert 0 <= derive(12345, "x") < 2**64
    r = rng_for(5, "lab")
    assert rng_for(5, "lab").random() == r.random()


def test_gen_writes_artifacts(tmp_path, capsys):
    code, out = run(
        ["gen", "id", "--m", "8", "--b", "2", "--p", "1", "--seed", "3",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    names = json.loads(out)["written"]
    assert names == ["graph.json", "manifest.json", "stream.txt"]
    doc = json.loads((tmp_path / "graph.json").read_text())
    assert doc["kind"] == "permgraph" and doc["sigma"] == list(range(1, 9))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "gen" and manifest["seed"] == 3
    assert set(manifest["outputs"]) == {"graph.json", "stream.txt"}
    stream_text = (tmp_path / "stream.txt").read_text()
    assert stream_text.startswith("PHSTREAM v1\n")
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_gen_deterministic_rerun(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _ = run(
            ["gen", "random", "--m", "8", "--b", "2", "--p", "1", "--seed", "11",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
    for name in ("graph.json", "stream.txt", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_seed_changes_output(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(["gen", "id", "--m", "8", "--seed", "1", "--out", str(a)], capsys)
    run(["gen", "id", "--m", "8", "--seed", "2", "--out", str(b)], capsys)
    assert (a / "graph.json").read_bytes() != (b / "graph.json").read_bytes()


def test_gen_explicit_sigma_and_validation(tmp_path, capsys):
    code, _ = run(
        ["gen", "2,1,4,3", "--m", "4", "--b", "2", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads((tmp_path / "graph.json").read_text())
    assert doc["sigma"] == [2, 1, 4, 3]
    assert main(["gen", "2,1,3", "--m", "4", "--out", str(tmp_path / "bad")]) == 2


def test_verify_clean_and_corrupt(tmp_path, capsys):
    code, _ = run(
        ["gen", "cross", "--m", "4", "--b", "2", "--seed", "5",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    code, out = run(
        ["verify", str(tmp_path / "graph.json"), str(tmp_path / "stream.txt")],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["clean"] == 2

    doc = json.loads((tmp_path / "graph.json").read_text())
    edge = doc["graph"]["edges"][7]
    edge[2] = edge[2] % 2 + 1
    (tmp_path / "broken.json").write_text(json.dumps(doc))
    code, out = run(["verify", str(tmp_path / "broken.json")], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["clean"] == 0 and report["violations"]


def test_verify_accepts_gen_output_at_odd_m(tmp_path, capsys):
    code, _ = run(["gen", "random", "--m", "9", "--b", "3", "--out", str(tmp_path)], capsys)
    assert code == 0
    code, out = run(
        ["verify", str(tmp_path / "graph.json"), str(tmp_path / "stream.txt")],
        capsys,
    )
    assert code == 0, out
    assert json.loads(out)["clean"] == 2


def test_verify_rehashes_a_manifests_outputs(tmp_path, capsys):
    code, _ = run(["gen", "cross", "--m", "8", "--b", "2", "--p", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    files = [str(tmp_path / name) for name in ("graph.json", "manifest.json", "stream.txt")]
    code, out = run(["verify", *files], capsys)
    assert code == 0, out
    assert json.loads(out)["clean"] == 3
    manifest = str(tmp_path / "manifest.json")
    digests = json.loads((tmp_path / "manifest.json").read_text())["outputs"]

    with open(tmp_path / "stream.txt", "ab") as fh:
        fh.write(b"\n")
    changed = hashlib.sha256((tmp_path / "stream.txt").read_bytes()).hexdigest()
    (tmp_path / "graph.json").unlink()
    code, out = run(["verify", manifest], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == {manifest: [
        "graph.json: missing",
        f"stream.txt: sha256 {changed}, manifest says {digests['stream.txt']}",
    ]}


@pytest.mark.parametrize("outputs, problem", [
    ({"../graph.json": "0"}, "output '../graph.json' is not a file name"),
    ({"": "0"}, "output '' is not a file name"),
    (["graph.json"], "manifest outputs must map file names to sha256 digests"),
], ids=["parent", "empty", "list"])
def test_verify_reports_manifest_outputs_it_cannot_check(tmp_path, capsys, outputs, problem):
    path = tmp_path / "manifest.json"
    doc = {"command": "gen", "outputs": outputs, "params": {}, "seed": 0, "version": "0.1.0"}
    path.write_text(json.dumps(doc))
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == {str(path): [problem]}


def test_verify_rs_file(tmp_path, capsys):
    from permlab.rs import dump_rs, trivial_rs

    path = tmp_path / "family.rs"
    path.write_text(dump_rs(trivial_rs(6, 2)))
    code, out = run(["verify", str(path)], capsys)
    assert code == 0
    path.write_text("6 2 9\n1 1\n")
    code, _ = run(["verify", str(path)], capsys)
    assert code == 1


def test_verify_hph_file(tmp_path, capsys):
    import random

    from permlab.hph import dump_instance, sample_instance

    targets = (((1, 2), (1, 2)), ((2, 1), (2, 1)))
    inst = sample_instance(4, 2, 2, 2, targets, random.Random(0), seed=0)
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(inst))
    code, _ = run(["verify", str(path)], capsys)
    assert code == 0


@pytest.mark.parametrize("schema", [5, None, ["multi-hph"]], ids=["int", "null", "list"])
def test_verify_reports_a_schema_that_is_no_string(tmp_path, capsys, schema):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"schema": schema}))
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == {str(path): [f"unrecognized JSON document in {path}"]}


@pytest.mark.parametrize("where", ["plain", "permgraph-header"])
def test_verify_reports_json_nested_too_deeply(tmp_path, capsys, where):
    # json.loads raises RecursionError past the interpreter's recursion limit;
    # the file is reported, not the traceback
    deep = b"[" * 100_000 + b"]" * 100_000
    if where == "plain":
        data = b'{"a": ' + deep + b"}"
    else:
        code, _ = run(["gen", "id", "--m", "4", "--b", "2", "--out", str(tmp_path / "g")], capsys)
        assert code == 0
        data = (tmp_path / "g" / "graph.json").read_bytes().rstrip()
        data = data[:-1] + b', "z": ' + deep + b"}"
    path = tmp_path / "deep.json"
    path.write_bytes(data)
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    (problem,) = json.loads(out)["violations"][str(path)]
    assert problem.startswith("unreadable: maximum recursion depth exceeded")


def test_analyze_decay_json(capsys):
    code, out = run(["analyze", "decay", "b=3", "g=3", "trials=5"], capsys)
    assert code == 0
    rows = json.loads(out)
    parity = [r for r in rows if str(r["family"]) == "parity"]
    assert len(parity) == 3
    assert all(r["holds"] for r in rows)
    assert all(r["tight"] for r in parity)


def test_analyze_decay_csv(capsys):
    code, out = run(
        ["analyze", "decay", "b=3", "g=2", "trials=2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "b"
    assert len(lines) == 1 + 3 + 2


def test_analyze_fourier(capsys):
    code, out = run(["analyze", "fourier", "b=3", "trials=5"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert all(r["holds"] for r in rows)
    assert {r["check"] for r in rows} == {
        "dimension_sum", "roundtrip", "convolution", "plancherel",
    }


def test_analyze_pinsker(capsys):
    code, out = run(["analyze", "pinsker", "b=3", "trials=30"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["holds"] and rows[0]["min_slack"] > -1e-12


def test_analyze_depth(capsys):
    code, out = run(["analyze", "depth", "m=16", "b=4"], capsys)
    assert code == 0
    row = json.loads(out)[0]
    assert row["depth"] == 9 and row["holds"]


def test_analyze_writes_file(tmp_path, capsys):
    code, out = run(
        ["analyze", "depth", "m=8", "b=2", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    path = json.loads(out)["written"]
    assert os.path.exists(path)
    with open(path) as fh:
        assert json.load(fh)[0]["depth"] == 6


def test_analyze_trials_flag_merges(capsys):
    code, out = run(["analyze", "pinsker", "b=3", "--trials", "31"], capsys)
    assert code == 0
    assert json.loads(out)[0]["trials"] == 31


def test_analyze_decay_refuses_b_below_two(capsys):
    assert main(["analyze", "decay", "b=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parity_biased needs b >= 2, got b=1\n"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["analyze", "nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nope"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "id", "--m", "7", "--b", "2"],
        ["gen", "id", "--m", "4", "--b", "2", "--p", "0"],
        ["gen", "1,2,3", "--m", "4", "--b", "2"],
        ["analyze", "depth", "m"],
        ["analyze", "depth", "m=5", "b=1"],
        ["gen", "cross", "--m", "64", "--b", "2", "--p", "3"],
        ["analyze", "advantage", "m=64", "b=2", "p=3"],
        ["gen", "id", "--m", "0"],
        ["analyze", "advantage", "m=0", "b=2"],
        ["analyze", "decay", "b=3", "trails=5"],
        ["analyze", "depth", "m=16", "--trials", "5"],
        ["analyze", "pinsker", "trials=0"],
        ["analyze", "fourier", "--trials", "0"],
        ["analyze", "decay", "trials=-1"],
        ["gen", "cross", "--m", "8", "--b", "2", "--p", "40"],
        ["gen", "cross", "--m", "1000000", "--b", "2"],
        ["analyze", "advantage", "m=4", "b=2", "p=40"],
        ["gen", "cross", "--m", "700000", "--b", "2", "--k", "1"],
        ["analyze", "depth", "m=0"],
        ["analyze", "depth", "m=-5"],
        ["gen", "random", "--m", "8", "--b", "2", "--seed", "1", "--shuffle-seed", "-3"],
        ["gen", "id", "--m", "2", "--b", "2", "--k", "65535"],
    ],
    ids=["gen-b-not-dividing-m", "gen-p-zero", "gen-sigma-wrong-length",
         "analyze-not-key-value", "analyze-b-one", "gen-over-vertex-cap",
         "analyze-over-vertex-cap", "gen-m-zero", "analyze-advantage-m-zero",
         "analyze-unknown-setting", "analyze-depth-trials", "analyze-pinsker-no-trials",
         "analyze-fourier-no-trials", "analyze-decay-negative-trials",
         "gen-p-far-over-vertex-cap", "gen-m-far-over-vertex-cap",
         "analyze-advantage-p-far-over-vertex-cap", "gen-wide-over-general-floor",
         "analyze-depth-m-zero", "analyze-depth-m-negative", "gen-negative-shuffle-seed",
         "gen-k-over-tag-ids"],
)
def test_bad_values_exit_2(argv, tmp_path, capsys):
    if argv[0] == "gen":
        argv = [*argv, "--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_gen_refuses_an_out_that_is_a_file(tmp_path, capsys, monkeypatch):
    def sample(*args):
        raise AssertionError("sampled before the output directory was resolved")

    monkeypatch.setattr("permlab.cli.gen_general", sample)
    path = tmp_path / "taken"
    path.write_text("")
    assert main(["gen", "id", "--m", "4", "--b", "2", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert path.read_text() == ""


# a MemoryError raised by the interpreter's own allocator carries no message
OUT_OF_MEMORY = [("Unable to allocate 3.00 GiB for an array",) * 2, ("", "allocation failed")]


def test_gen_reports_running_out_of_memory(tmp_path, capsys, monkeypatch):
    for message, reported in OUT_OF_MEMORY:
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr("permlab.cli.gen_general", exhausted)
        assert main(["gen", "cross", "--m", "4", "--b", "2", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {reported}\n"
        assert not (tmp_path / "manifest.json").exists()


def test_env_var_default_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PERMLAB_OUT", str(tmp_path))
    code, out = run(["gen", "id", "--m", "4", "--b", "2"], capsys)
    assert code == 0
    assert json.loads(out)["out"] == str(tmp_path)
    assert (tmp_path / "graph.json").exists()


def test_verify_rejects_edge_outside_its_layers(tmp_path, capsys):
    # endpoint 0 would wrap to the layer's last vertex during extraction, so
    # this graph still yields the identity; only validation sees the bad edge
    doc = {
        "kind": "permgraph", "m": 2, "b": 2, "k": 2, "p": 1, "sigma": [1, 2],
        "graph": {"layers": [2, 2], "edges": [[1, 1, 1], [1, 0, 2]]},
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == {
        str(path): ["invalid graph: edge (1,0,2) leaves its layers"]
    }


@pytest.mark.parametrize("layers, problem", [([], "graph has no layers"),
                                             ([2, -1, 2], "negative layer size -1")])
def test_verify_rejects_layer_lists_no_graph_has(tmp_path, capsys, layers, problem):
    doc = {
        "kind": "permgraph", "m": 2, "b": 2, "k": 1, "p": 1, "sigma": [1, 2],
        "graph": {"layers": layers, "edges": []},
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == {str(path): [f"invalid graph: {problem}"]}


def test_verify_stream_without_count_line(tmp_path, capsys):
    path = tmp_path / "stream.txt"
    path.write_text("PHSTREAM v1\n")
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    (problem,) = json.loads(out)["violations"][str(path)]
    assert problem.startswith("unreadable:")


def test_verify_stream_with_negative_vertex_count(tmp_path, capsys):
    path = tmp_path / "stream.txt"
    path.write_text("PHSTREAM v1\n-1 0 1\n")
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == {str(path): ["unreadable: n=-1 is negative"]}


@pytest.mark.parametrize("field, value", [("b", "2"), ("sigma", 5), ("graph", [])],
                         ids=["b", "sigma", "graph"])
def test_verify_reports_wrongly_typed_field(tmp_path, capsys, field, value):
    code, _ = run(["gen", "cross", "--m", "4", "--b", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "graph.json").read_text())
    doc[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    (problem,) = json.loads(out)["violations"][str(path)]
    assert problem.startswith("unreadable:")


@pytest.mark.parametrize("field, value, problem", [
    ("sigma", [True, 2, 3, 4], "sigma: true is not a JSON integer"),
    ("sigma", [1, 2.0, 3, 4], "sigma: 2.0 is not a JSON integer"),
    ("k", 2.0, "k: 2.0 is not a JSON integer"),
    ("p", True, "p: true is not a JSON integer"),
    ("m", 4.0, "m: 4.0 is not a JSON integer"),
    ("layers", True, "layers: true is not a JSON integer"),
], ids=["sigma-boolean", "sigma-float", "k-float", "p-boolean", "m-float", "layer-boolean"])
def test_verify_reads_header_numbers_only_as_json_integers(tmp_path, capsys, field, value, problem):
    code, _ = run(["gen", "id", "--m", "4", "--b", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "graph.json").read_text())
    if field == "layers":
        doc["graph"]["layers"][1] = value
    else:
        doc[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == {str(path): [f"unreadable: {problem}"]}


def test_verify_refuses_a_sigma_on_another_range(tmp_path, capsys):
    code, _ = run(["gen", "cross", "--m", "4", "--b", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "graph.json").read_text())
    doc["sigma"] = [2, 1]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == {str(path): ["sigma acts on [2] but m=4"]}


def test_verify_runs_the_oracle_on_every_sigma(tmp_path, capsys, monkeypatch):
    # gen's graphs are vertex-disjoint paths, so every sigma's maximum
    # matching is read off the path labels that extraction made, once, and
    # never by bipartite_of; the paths are labelled once
    from permlab.graphs import path_roots
    from permlab.matching import certified_size

    sizes, labelled = [], []

    def counted(g, m, roots):
        size = certified_size(g, m, roots)
        sizes.append((g.vertex_count, size))
        return size

    def labelling(up):
        labelled.append(len(up))
        return path_roots(up)

    def refuse(*args):
        raise AssertionError("the instance was built")

    monkeypatch.setattr("permlab.cli.certified_size", counted)
    monkeypatch.setattr("permlab.graphs.path_roots", labelling)
    monkeypatch.setattr("permlab.cli.bipartite_of", refuse)
    for spec, half in (("id", 2), ("cross", 0), ("random", None), ("2,1,3,4", 2), ("1,3,2,4", 1)):
        out = tmp_path / spec
        code, _ = run(["gen", spec, "--m", "4", "--b", "2", "--out", str(out)], capsys)
        assert code == 0
        code, report = run(["verify", str(out / "graph.json")], capsys)
        assert code == 0, report
        if half is None:  # one augmenting path per i <= 2 with sigma(i) <= 2
            sigma = json.loads((out / "graph.json").read_text())["sigma"]
            half = sum(j <= 2 for j in sigma[:2])
        ((n, size),) = sizes
        assert size == n + half and labelled == [n + 1]
        sizes.clear()
        labelled.clear()


def test_verify_sends_graphs_that_are_not_paths_to_the_oracle(tmp_path, capsys, monkeypatch):
    # vertex 3 of layer 1 has two edges out, to sinks past m: sigma is swept,
    # and id and cross alone go to bipartite_of and max_matching
    from permlab.matching import max_matching

    sizes = []

    def counted(inst):
        res = max_matching(inst)
        sizes.append((inst.n, res.size, res.certified))
        return res

    monkeypatch.setattr("permlab.cli.max_matching", counted)
    edges = [[1, 3, 3], [1, 3, 4]]
    for sigma, want in (([1, 2], [(8, 9, True)]), ([2, 1], [(8, 8, True)])):
        rows = edges + [[1, u, v] for u, v in enumerate(sigma, start=1)]
        doc = {"kind": "permgraph", "m": 2, "b": 2, "k": 1, "p": 1, "sigma": sigma,
               "graph": {"edges": rows, "layers": [4, 4]}}
        path = tmp_path / f"branch{sigma[0]}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        code, out = run(["verify", str(path)], capsys)
        problems = json.loads(out)["violations"][str(path)]
        assert code == 1 and not any("matching" in p or "extract" in p for p in problems), problems
        assert sizes == want
        sizes.clear()


def test_verify_refuses_params_far_over_the_cap(tmp_path, capsys):
    # the exact count at p=40 would need sorting networks on m * 2^39 wires;
    # the network-free floor refuses it first
    code, _ = run(["gen", "cross", "--m", "4", "--b", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "graph.json").read_text())
    doc["p"] = 40
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    code, out = run(["verify", str(path)], capsys)
    assert time.monotonic() - start < 5
    assert code == 1
    (problem,) = json.loads(out)["violations"][str(path)]
    assert problem.startswith("unreadable: sample would need at least ")


def test_verify_reports_running_out_of_memory(tmp_path, capsys, monkeypatch):
    from permlab.graphs import LayeredGraph

    code, _ = run(["gen", "cross", "--m", "4", "--b", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    path, stream = str(tmp_path / "graph.json"), str(tmp_path / "stream.txt")
    for message, reported in OUT_OF_MEMORY:
        def exhausted(data):
            raise MemoryError(message)

        monkeypatch.setattr(LayeredGraph, "from_json", exhausted)
        code, out = run(["verify", path, stream], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["clean"] == 1
        assert report["violations"] == {path: [f"out of memory: {reported}"]}


def test_verify_reports_running_out_of_memory_in_extraction(tmp_path, capsys, monkeypatch):
    # extraction labels the graph's paths, then reads sigma off them
    code, _ = run(["gen", "cross", "--m", "4", "--b", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    path = str(tmp_path / "graph.json")
    failures = [(MemoryError(message), f"out of memory: {reported}") for message, reported in OUT_OF_MEMORY]
    failures.append((ValueError("boundary layers"), "extraction failed: boundary layers"))
    for name in ("path_labels", "read_permutation"):
        for err, problem in failures:
            def failing(*args):
                raise err

            with monkeypatch.context() as patch:
                patch.setattr(f"permlab.cli.{name}", failing)
                code, out = run(["verify", path], capsys)
            assert code == 1
            assert json.loads(out)["violations"] == {path: [problem]}


@pytest.mark.parametrize("field, value, problem", [
    ("L", [2, 1], "L must hold 2 row indices in [1, 1]"),
    ("L", [0, 1], "L must hold 2 row indices in [1, 1]"),
    ("gamma", [0], "gamma and the targets must hold r/2 = 2 permutations each"),
    ("gamma", [2, 0], "rank 2 outside [0, 2!)"),
    ("gamma", [0, -1], "rank -1 outside [0, 2!)"),
    ("L", [True, True], "L: true is not a JSON integer"),
    ("seed", 1.5, "seed: 1.5 is not a JSON integer"),
], ids=["L-past-t", "L-zero", "gamma-short", "rank-2", "rank-minus-1", "L-booleans", "seed-float"])
def test_verify_rejects_instance_files_dump_instance_never_writes(tmp_path, capsys, field, value, problem):
    import random

    from permlab.hph import dump_instance, sample_instance

    targets = (((1, 2), (1, 2)), ((2, 1), (2, 1)))
    doc = json.loads(dump_instance(sample_instance(4, 1, 2, 2, targets, random.Random(0))))
    doc[field] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["violations"] == {str(path): [f"unreadable: {problem}"]}


@pytest.mark.parametrize("p", [1, 2])
def test_verify_reads_no_tag_row_of_a_gen_graph(tmp_path, capsys, monkeypatch, p):
    # the tag array is the text the params' layout spells, so its ids and
    # names are the layout's; only the edge rows go through read_rows, and
    # verify does not compare the adopted tags with the layout's again
    from permlab import gen, graphs

    code, _ = run(["gen", "random", "--m", "8", "--b", "2", "--p", str(p), "--out", str(tmp_path)], capsys)
    assert code == 0
    data = (tmp_path / "graph.json").read_bytes()
    read = json.loads(data)["graph"]
    seps = []
    real = graphs.read_rows

    def spy(data, lo, end, row, *args, **kwargs):
        seps.append(row)
        return real(data, lo, end, row, *args, **kwargs)

    monkeypatch.setattr(graphs, "read_rows", spy)
    g, _ = graphs.LayeredGraph.from_json(data)
    assert seps == [graphs._EDGE_ROW]
    assert g.tags == read["tags"] and g.edges.tolist() == read["edges"] and g.layers == read["layers"]
    spelled = []
    real_ids = gen.Layout.tag_ids

    def tag_ids(layout):
        spelled.append(layout)
        return real_ids(layout)

    monkeypatch.setattr(gen.Layout, "tag_ids", tag_ids)
    code, out = run(["verify", str(tmp_path / "graph.json")], capsys)
    assert code == 0, out
    assert seps == [graphs._EDGE_ROW] * 2
    assert len(spelled) == 1  # the ids from_json adopts


def test_verify_validates_a_graph_once(tmp_path, capsys, monkeypatch):
    # validate walks the edge column alone; extraction reads the result
    from permlab import graphs

    code, _ = run(["gen", "cross", "--m", "8", "--b", "2", "--p", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    walks = []
    real = graphs.in_blocks

    def spy(*columns):
        walks.append(len(columns))
        return real(*columns)

    monkeypatch.setattr(graphs, "in_blocks", spy)
    code, out = run(["verify", str(tmp_path / "graph.json")], capsys)
    assert code == 0, out
    assert walks.count(1) == 1


def test_verify_checks_the_layout_its_params_fix(tmp_path, capsys):
    # each edit passed verify while it checked the graph against sigma alone,
    # except the moved edge, which also breaks extraction
    code, _ = run(["gen", "random", "--m", "8", "--b", "2", "--p", "2", "--seed", "3",
                   "--out", str(tmp_path)], capsys)
    assert code == 0
    data = (tmp_path / "graph.json").read_bytes()
    doc = json.loads(data)
    edges, tags = doc["graph"]["edges"], doc["graph"]["tags"]
    e = tags.index("referee", 100)
    at = data.index(b'"tags": [')
    for _ in range(e):
        at = data.index(b", ", at) + 2
    at = data.index(b'"referee"', at)
    retagged = data[:at] + b'"player:2"' + data[at + len(b'"referee"'):]
    layers = json.loads(data)
    layers["graph"]["layers"][5] += 1
    moved = json.loads(data)
    moved["graph"]["edges"][-1][0] -= 2
    short = json.loads(data)
    del short["graph"]["tags"][-1]
    short = json.dumps(short).encode()
    end = short.index(b'"]', short.index(b'"tags": [')) + 1  # the tag array's "]"
    layer, u, v = edges[-1]
    cases = [
        (retagged, [f"edge {e + 1} ({','.join(map(str, edges[e]))}) is tagged player:2, "
                    f"the layout tags it referee"]),
        (json.dumps(layers).encode(), [f"layer 6 has size {doc['graph']['layers'][5] + 1}, "
                                       f"the layout's has {doc['graph']['layers'][5]}"]),
        (json.dumps(moved).encode(), [f"edge {len(edges)} ({layer - 2},{u},{v}) is in layer {layer - 2}, "
                                      f"the layout puts it in layer {layer}", "extraction failed"]),
        (short, [f"unreadable: byte {end}: {len(edges) - 1} tags for {len(edges)} edges"]),
    ]
    for i, (bad, want) in enumerate(cases):
        path = tmp_path / f"edited{i}.json"
        path.write_bytes(bad)
        code, out = run(["verify", str(path)], capsys)
        assert code == 1
        (problems,) = json.loads(out)["violations"].values()
        assert len(problems) == len(want) and all(p.startswith(w) for p, w in zip(problems, want)), problems


def test_verify_builds_no_layer_plan_for_a_document_too_small_for_its_params(tmp_path, capsys, monkeypatch):
    # m = 80,000 at b = 2, k = 1, p = 1 passes the vertex floor, so its
    # vertex count and layout need its sorting network; a document this
    # small gets its sigma or extraction report without one
    def refuse(m, b):
        raise AssertionError("a layer plan was built")

    monkeypatch.setattr("permlab.gen._layer_plan", refuse)
    head = {"kind": "permgraph", "m": 80000, "b": 2, "k": 1, "p": 1}
    graph = {"edges": [[1, 1, 1], [1, 2, 2]], "layers": [2, 2], "tags": ["referee", "referee"]}
    cases = [({**head, "sigma": []}, "sigma acts on [0] but m=80000"),
             ({**head, "sigma": list(range(1, 80001))},
              "extraction failed: boundary layers smaller than m=80000")]
    for i, (doc, want) in enumerate(cases):
        path = tmp_path / f"small{i}.json"
        path.write_text(json.dumps({**doc, "graph": graph}, sort_keys=True))
        code, out = run(["verify", str(path)], capsys)
        assert code == 1
        assert json.loads(out)["violations"] == {str(path): [want]}


def test_verify_checks_a_graph_too_small_for_its_params_after_extraction(tmp_path, capsys):
    # four edges extract sigma, but a sample at these params has more
    from permlab.gen import default_params, layout

    want = layout(default_params(4, 2, k=2, p=1))
    doc = {"kind": "permgraph", "m": 4, "b": 2, "k": 2, "p": 1, "sigma": [1, 2, 3, 4],
           "graph": {"edges": [[1, u, u] for u in range(1, 5)], "layers": [4, 4]}}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    problems = json.loads(out)["violations"][str(path)]
    assert problems[:2] == [f"2 layers, the layout has {len(want.layers())}",
                            f"4 edges, the layout has {want.edges}"]


@pytest.mark.parametrize("m, b, k, p", [(8, 2, 2, 1), (9, 3, 1, 1), (16, 4, 3, 1), (8, 2, 2, 2), (12, 3, 1, 2)])
@pytest.mark.parametrize("shuffle", [None, 0, 7])
def test_gen_writes_the_stream_graph_to_stream_gives(tmp_path, capsys, monkeypatch, m, b, k, p, shuffle):
    # gen draws the order before the graph and formats stream.txt from the
    # graph's rows, a block of the order at a time (97 rows here, so the
    # blocks cut the runs); graph_to_stream sorts and shuffles the graph
    from permlab.graphs import LayeredGraph
    from permlab.streams import dump_stream, graph_to_stream

    monkeypatch.setattr("permlab.codec.BLOCK", 97)
    argv = ["gen", "random", "--m", str(m), "--b", str(b), "--k", str(k), "--p", str(p), "--seed", "5",
            "--out", str(tmp_path)]
    code, _ = run(argv + ([] if shuffle is None else ["--shuffle-seed", str(shuffle)]), capsys)
    assert code == 0
    g, _ = LayeredGraph.from_json((tmp_path / "graph.json").read_bytes())
    assert (tmp_path / "stream.txt").read_text() == dump_stream(graph_to_stream(g, shuffle))


def test_gen_draws_the_order_before_the_graph(tmp_path, capsys, monkeypatch):
    # the shuffle's temporaries are gone before the graph is filled
    from permlab import cli

    calls = []
    for name in ("shuffled_range", "gen_general"):
        def spy(*args, real=getattr(cli, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cli, name, spy)
    code, _ = run(["gen", "cross", "--m", "8", "--b", "2", "--shuffle-seed", "3", "--out", str(tmp_path)], capsys)
    assert code == 0 and calls == ["shuffled_range", "gen_general"]


def test_reading_an_artifact_pair_holds_no_whole_file(tmp_path, capsys):
    # each reader holds its columns and a window of the file; the pair is
    # cli_p2's size, 568,432 edges
    import tracemalloc

    from permlab.graphs import LayeredGraph
    from permlab.streams import parse_stream

    code, _ = run(["gen", "random", "--m", "16", "--b", "4", "--p", "2", "--seed", "1", "--shuffle-seed", "2",
                   "--out", str(tmp_path)], capsys)
    assert code == 0
    graph, stream = tmp_path / "graph.json", tmp_path / "stream.txt"
    sizes = [os.path.getsize(graph), os.path.getsize(stream)]
    with open(graph, "rb") as fh:
        rows = len(LayeredGraph.from_json(fh)[0].edges)  # and the params' layout is cached
    assert rows == 568_432
    for path, read, columns in ((graph, lambda fh: LayeredGraph.from_json(fh)[0], 14 * rows),
                                (stream, parse_stream, 10 * rows)):  # int32 ints and uint16 tag ids
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                read(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 7.3 and 6.0 MB measured, about a dozen windows' worth, for files of 14.6 and 11.7 MB
        assert peak - columns < min(sizes), (path.name, peak - columns, sizes)
