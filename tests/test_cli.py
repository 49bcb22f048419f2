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
    assert json.loads(open(path).read())[0]["depth"] == 6


def test_analyze_trials_flag_merges(capsys):
    code, out = run(["analyze", "pinsker", "b=3", "--trials", "31"], capsys)
    assert code == 0
    assert json.loads(out)[0]["trials"] == 31


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
    ],
    ids=["gen-b-not-dividing-m", "gen-p-zero", "gen-sigma-wrong-length",
         "analyze-not-key-value", "analyze-b-one", "gen-over-vertex-cap",
         "analyze-over-vertex-cap", "gen-m-zero", "analyze-advantage-m-zero",
         "analyze-unknown-setting", "analyze-depth-trials", "analyze-pinsker-no-trials",
         "analyze-fourier-no-trials", "analyze-decay-negative-trials",
         "gen-p-far-over-vertex-cap", "gen-m-far-over-vertex-cap",
         "analyze-advantage-p-far-over-vertex-cap", "gen-wide-over-general-floor",
         "analyze-depth-m-zero", "analyze-depth-m-negative"],
)
def test_bad_values_exit_2(argv, tmp_path, capsys):
    if argv[0] == "gen":
        argv = [*argv, "--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


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


def test_verify_stream_without_count_line(tmp_path, capsys):
    path = tmp_path / "stream.txt"
    path.write_text("PHSTREAM v1\n")
    code, out = run(["verify", str(path)], capsys)
    assert code == 1
    (problem,) = json.loads(out)["violations"][str(path)]
    assert problem.startswith("unreadable:")


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
