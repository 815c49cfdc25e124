import hashlib
import json
import subprocess
import sys

import pytest

from orbistring.cli import main
from orbistring.graded import basis_window, lens_delta, lens_ring


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_json(capsys):
    code, out, err = run(capsys, "group", "--group", "S3")
    assert code == 0
    blob = json.loads(out)
    assert blob["order"] == 6


def test_unknown_group_is_domain_error(capsys):
    code, out, err = run(capsys, "group", "--group", "nope")
    assert code == 1
    assert json.loads(err)["kind"] == "GroupError"


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_unreadable_input_is_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    for spec in (missing, "@" + missing, "@" + str(tmp_path)):
        code, out, err = run(capsys, "validate", "--diagram", spec)
        assert code == 2
        blob = json.loads(err)
        assert blob["kind"] == "usage" and spec.lstrip("@") in blob["error"]


def test_dw_formats(capsys):
    code, out, _ = run(capsys, "dw", "--group", "Z3", "--format", "table")
    assert code == 0 and "coeff" in out
    code, out, _ = run(capsys, "dw", "--group", "Z3", "--format", "markdown")
    assert code == 0 and out.startswith("###")


def test_torsion_roundtrip(capsys):
    code, out, _ = run(capsys, "torsion", "--group", "Z2xZ2", "--cocycle", "nontrivial")
    assert code == 0
    blob = json.loads(out)
    assert blob["denominator"] == 2
    assert blob["num"][2][1] == 1  # tau((1,0),(0,1)) = -1


def test_twisted_center_cli(capsys):
    code, out, _ = run(capsys, "twisted-center", "--group", "Z2xZ2", "--cocycle", "nontrivial")
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_validate_compute_serialize_reparse(capsys):
    diagram = json.dumps({"n": 2, "chords": [[1, 4, 3, 4]], "marks": [[1, 2], [0, 1]]})
    code, out, _ = run(capsys, "validate", "--diagram", diagram)
    assert code == 0
    canonical = json.loads(out)
    code, out2, _ = run(capsys, "validate", "--diagram", json.dumps(canonical))
    assert code == 0
    assert json.loads(out2) == canonical


def test_crossing_diagram_domain_error(capsys):
    diagram = json.dumps(
        {"n": 3, "chords": [[1, 10, 4, 10], [2, 10, 6, 10]], "marks": [[0, 1], [15, 100], [3, 10]]}
    )
    code, out, err = run(capsys, "validate", "--diagram", diagram)
    assert code == 1
    blob = json.loads(err)
    assert blob["kind"] == "DiagramError" and "cross" in blob["error"]


def test_interval_label_errors_name_their_witness(capsys):
    # the count of labels given, the least label no region carries, the first
    # vertex whose arc contradicts its region's label, and the first mark off
    # its labeled region; composition no longer reaches the last two
    two = {"n": 2, "chords": [[1, 4, 3, 4]], "marks": [[1, 2], [0, 1]]}
    three = {"n": 3, "chords": [[0, 1, 1, 4], [1, 2, 3, 4]], "marks": [[1, 8], [3, 8], [5, 8]]}
    for data, labels, message, witness in (
        (two, [1], "interval label count does not match vertices", "1"),
        (two, [1, 5], "interval labels are not a bijection", "2"),
        (two, [2, 2], "interval labels are not a bijection", "1"),
        (three, [1, 2, 3, 3], "inconsistent interval labels", "3"),
        (two, [2, 1], "mark 1 is not on region 1", "0"),
    ):
        diagram = json.dumps({**data, "interval_labels": labels})
        code, out, err = run(capsys, "validate", "--diagram", diagram)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": message, "kind": "DiagramError", "witness": witness}


def test_compose_and_cactus_cli(capsys, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"n": 2, "chords": [[1, 4, 3, 4]], "marks": [[1, 2], [0, 1]]}))
    e = tmp_path / "e.json"
    e.write_text(json.dumps({"n": 1, "chords": [], "marks": [[0, 1]]}))
    code, out, _ = run(capsys, "compose", "--base", f"@{base}", "--parts", f"@{e}", f"@{e}")
    assert code == 0
    assert json.loads(out)["chords"] == [[1, 4, 3, 4]]
    code, out, _ = run(capsys, "cactus", "--diagram", f"@{base}")
    assert code == 0
    cac = tmp_path / "cac.json"
    cac.write_text(out)
    code, out2, _ = run(capsys, "uncactus", "--cactus", f"@{cac}")
    assert code == 0
    assert json.loads(out2)["chords"] == [[1, 4, 3, 4]]


def test_gcompose_mismatch_exit_code(capsys, tmp_path):
    w = tmp_path / "w.json"
    w.write_text(
        json.dumps(
            {
                "n": 2,
                "chords": [[1, 4, 3, 4]],
                "marks": [[1, 2], [0, 1]],
                "group": "Z2",
                "outer": 1,
                "delta": [0],
                "lifts": [0, 0],
            }
        )
    )
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"n": 1, "chords": [], "marks": [[0, 1]], "group": "Z2", "outer": 0, "delta": [], "lifts": [0]})
    )
    ihc = main(["ih", "--gdiagram", f"@{w}"])
    captured = capsys.readouterr()
    ih = json.loads(captured.out)["inner"]
    parts = []
    for h in ih:
        p = tmp_path / f"p{h}_{len(parts)}.json"
        p.write_text(
            json.dumps({"n": 1, "chords": [], "marks": [[0, 1]], "group": "Z2", "outer": h, "delta": [], "lifts": [0]})
        )
        parts.append(f"@{p}")
    code, out, err = run(capsys, "gcompose", "--base", f"@{w}", "--parts", *parts)
    assert code == 0
    # now break the first slot
    code, out, err = run(capsys, "gcompose", "--base", f"@{w}", "--parts", f"@{bad}", parts[1])
    if ih[0] == 0:
        assert code == 0  # the "bad" part happened to match
    else:
        assert code == 1
        blob = json.loads(err)
        assert blob["slot"] == 1


def test_enumerate_cli(capsys):
    diagram = json.dumps({"n": 1, "chords": [], "marks": [[0, 1]]})
    code, out, _ = run(
        capsys, "enumerate", "--diagram", diagram, "--group", "S3", "--outer", "(1,3,2)", "--inner", "(1,2,3)"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 3  # lifts conjugating (1,3,2) to (1,2,3): one centralizer coset
    code, out, _ = run(
        capsys, "enumerate", "--diagram", diagram, "--group", "S3", "--outer", "(1,3,2)", "--inner", "(1,2)"
    )
    assert json.loads(out)["count"] == 0  # a transposition is not conjugate to a 3-cycle
    code, out, _ = run(
        capsys, "enumerate", "--diagram", diagram, "--group", "S3", "--outer", "(1,3,2)"
    )
    assert json.loads(out)["count"] == 6


def test_enumerate_rejects_empty_inner_entries(capsys):
    # an empty entry used to be dropped, so "0,,1" ran with the signature (0, 1)
    # and "" with none at all
    diagram = json.dumps({"n": 2, "chords": [[1, 4, 3, 4]], "marks": [[1, 2], [0, 1]]})
    for inner, i, count in (("0,,1", 2, 3), ("0,1,", 3, 3), ("", 1, 1)):
        code, out, err = run(capsys, "enumerate", "--diagram", diagram, "--group", "Z2", "--outer", "0", "--inner", inner)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": f"--inner entry {i} of {count} is empty", "kind": "usage"}
    code, out, _ = run(capsys, "enumerate", "--diagram", diagram, "--group", "Z2", "--outer", "0", "--inner", "0, 0")
    assert code == 0 and json.loads(out)["inner"] == [0, 0]


TWO_REGIONS = {"n": 2, "chords": [[1, 4, 3, 4]], "marks": [[1, 2], [0, 1]]}
IDENTITY = {"n": 1, "chords": [], "marks": [[0, 1]], "group": "Z2", "outer": 0, "delta": [], "lifts": [0]}


def _gdiagram(**fields):
    """IDENTITY with the given fields as JSON; a field set to None is left out."""
    return json.dumps({k: v for k, v in {**IDENTITY, **fields}.items() if v is not None})


BASE2 = _gdiagram(**TWO_REGIONS, delta=[0], lifts=[0, 0])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["ih", "--gdiagram", _gdiagram(**TWO_REGIONS, lifts=[0, 0])], "need one identification element per chord"),
        (["ih", "--gdiagram", _gdiagram(**TWO_REGIONS, delta=[0])], "need one mark lift per region"),
        (
            ["ih", "--gdiagram", _gdiagram(**TWO_REGIONS, delta=[0], lifts=[0, 0], outer=None)],
            "bad decorated diagram JSON: 'outer'",
        ),
        (
            ["gcompose", "--base", BASE2, "--parts", _gdiagram(group="Z3"), _gdiagram()],
            "parts must be decorated over the same group",
        ),
        (["gcompose", "--base", BASE2, "--parts", _gdiagram()], "need 2 parts, got 1"),
        (
            ["enumerate", "--diagram", json.dumps(TWO_REGIONS), "--group", "S3", "--outer", "0", "--cap", "10"],
            "search space 216 exceeds cap 10",
        ),
    ],
)
def test_gchords_input_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": message, "kind": "HolonomyError"}


@pytest.mark.parametrize(
    "n,message",
    [
        ("1", "the sphere dimension must be at least 3, got 1: "
              "the loop homology of S^1 needs an invertible u of degree 0"),
        ("4", "the sphere dimension must be odd"),
    ],
)
def test_ring_names_a_bad_lens_dimension(capsys, n, message):
    code, out, err = run(capsys, "ring", "--name", "lens", "--n", n, "--p", "2")
    assert (code, out, json.loads(err)) == (1, "", {"error": message, "kind": "GradedError"})


def test_ring_and_bvcheck_cli(capsys, tmp_path):
    code, out, _ = run(capsys, "ring", "--name", "lens", "--n", "3", "--p", "2", "--window=-3:3")
    assert code == 0
    blob = json.loads(out)
    assert {"monomial": "v", "degree": 0} in blob["basis"]
    code, out, _ = run(capsys, "bvcheck", "--name", "lens", "--n", "3", "--p", "2", "--window=-3:6")
    assert code == 0 and json.loads(out)["ok"]
    delta = tmp_path / "delta.json"
    basis = [b["monomial"] for b in blob["basis"]]
    delta.write_text(json.dumps({"entries": [[basis.index("a"), basis.index("1"), "1"]]}))
    code, out, _ = run(
        capsys, "bvcheck", "--name", "lens", "--n", "3", "--p", "2", "--window=-3:3", "--delta", f"@{delta}"
    )
    assert code == 0
    assert not json.loads(out)["ok"]


def test_empty_ring_window_is_domain_error(capsys):
    code, out, err = run(capsys, "ring", "--name", "lens", "--n", "3", "--p", "2", "--window=3:1")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "empty degree window", "kind": "GradedError"}


def test_nonpositive_cyclic_order_is_domain_error(capsys):
    for argv in (["--name", "lens", "--n", "3", "--p", "0"], ["--name", "sphere-quotient", "--p", "0"]):
        code, out, err = run(capsys, "ring", *argv)
        assert code == 1 and out == "", argv
        assert json.loads(err) == {"error": "the cyclic order must be positive", "kind": "GradedError"}, argv


def test_morita_cli(capsys):
    code, out, _ = run(capsys, "morita", "--left", "coset:S3:Z3", "--right", "point:Z3")
    assert code == 0
    assert json.loads(out)["isomorphic"] is True


def test_string_ring_cli_point_vs_dw(capsys):
    code, out1, _ = run(capsys, "string-ring", "--gset", "point:S3")
    code2, out2, _ = run(capsys, "dw", "--group", "S3")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["structure"] == r2["structure"]


def test_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "orbistring.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "selftest" in proc.stdout


def test_closed_reader_exits_without_traceback():
    # the JSON report is about 1.5 MB, far more than a pipe buffers, so the
    # writer meets the closed pipe while it still has output left
    args = ["ring", "--name", "lens", "--n", "3", "--p", "5", "--window=-3:40", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbistring.cli", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_byte_identical_reports_small():
    args = ["dw", "--group", "S4", "--format", "json"]
    p1 = subprocess.run([sys.executable, "-m", "orbistring.cli", *args], capture_output=True)
    p2 = subprocess.run([sys.executable, "-m", "orbistring.cli", *args], capture_output=True)
    assert p1.stdout == p2.stdout


def test_malformed_inputs_are_domain_errors(capsys, tmp_path):
    cactus = tmp_path / "cactus.json"
    cactus.write_text(
        json.dumps({"perimeters": [["x", 1]], "joints": [], "base_lobe": 1, "base_offset": [0, 1]})
    )
    nolifts = tmp_path / "w.json"
    nolifts.write_text(
        json.dumps({"n": 1, "chords": [], "marks": [[0, 1]], "group": "Z2", "outer": 0, "delta": []})
    )
    group = tmp_path / "g.json"
    group.write_text(json.dumps({"name": "G", "mult": 5}))
    cases = [
        (["validate", "--diagram", '{"n":"x","marks":[]}'], "DiagramError", "diagram"),
        (["uncactus", "--cactus", f"@{cactus}"], "CactusError", "cactus"),
        (["ih", "--gdiagram", f"@{nolifts}"], "HolonomyError", "lift"),
        (
            ["torsion", "--group", "Z2", "--cocycle", '{"denominator":"x","num":[[0,0],[0,0]]}'],
            "CocycleError",
            "'denominator'",
        ),
        (["torsion", "--group", "Z2", "--cocycle", '{"denominator":2,"num":5}'], "CocycleError", "'num'"),
        (["string-ring", "--gset", '{"group":"Z2"}'], "GroupError", "'act'"),
        (["group", "--group", str(group)], "GroupError", "'mult'"),
    ]
    for argv, kind, named in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        blob = json.loads(err)
        assert blob["kind"] == kind and named in blob["error"], argv


def test_catalog_dir_resolves_group_files(capsys, tmp_path, monkeypatch):
    c2 = {"name": "C2", "order": 2, "names": ["e", "t"], "mult": [[0, 1], [1, 0]]}
    (tmp_path / "C2.json").write_text(json.dumps(c2))
    monkeypatch.setenv("ORBISTRING_CATALOG", str(tmp_path))
    code, out, err = run(capsys, "group", "--group", "C2")
    assert code == 0 and err == ""
    assert json.loads(out) == c2
    code, out, _ = run(capsys, "group", "--group", "S3")  # not in the directory: built-in catalog
    assert code == 0 and json.loads(out)["order"] == 6


def test_unreadable_catalog_entry_is_usage_error(capsys, tmp_path, monkeypatch):
    (tmp_path / "S3.json").mkdir()
    (tmp_path / "Z2.json").write_text("{not json")
    monkeypatch.setenv("ORBISTRING_CATALOG", str(tmp_path))
    # a name too long for the file system fails its existence probe
    for name in ("S3", "Z2", "x" * 300):
        code, out, err = run(capsys, "group", "--group", name)
        assert code == 2 and out == ""
        blob = json.loads(err)
        assert blob["kind"] == "usage" and str(tmp_path / f"{name}.json") in blob["error"]


def test_bad_bvcheck_delta_is_usage_error(capsys):
    lens = ["bvcheck", "--name", "lens", "--n", "3", "--p", "2", "--window=-3:6", "--delta"]
    cases = [
        (lens + ['{"entries":[[99,0,"1"]]}'], '[99, 0, "1"]'),
        (lens + ['{"entries":[[-1,0,"1"]]}'], '[-1, 0, "1"]'),
        (lens + ['{"entries":[[1,2,"1/0"]]}'], '[1, 2, "1/0"]'),
        (lens + ['{"entries":[["x",2,"1"]]}'], '["x", 2, "1"]'),
        (lens + ['{"entries":[[1.5,2,"1"]]}'], '[1.5, 2, "1"]'),
        (lens + ['{"entries":[[1,2]]}'], "[1, 2]"),
        (lens + ['{"entries":"x"}'], "entries"),
        (lens + ['{"entries":[[0,4,"1"],[0,4,"-1"]]}'], '[0, 4, "-1"]; repeats the (from, to) pair'),
        (["bvcheck", "--dw", "S3", "--delta", '{"entries":[]}'], "--dw"),
    ]
    for argv, named in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "Traceback" not in err
        blob = json.loads(err)
        assert blob["kind"] == "usage" and named in blob["error"], argv


def test_valid_bvcheck_delta_is_read(capsys):
    code, out, _ = run(
        capsys, "bvcheck", "--name", "lens", "--n", "3", "--p", "2", "--window=-3:6",
        "--delta", '{"entries":[[0,2,"1/2"]]}',
    )
    assert code == 0
    assert json.loads(out)["failures"] == [
        {"axiom": "delta-degree", "witness": "Delta((1, 0, 0)) hits (1, 1, 0): degree -1 != -2"}
    ]


def test_short_coset_spec_is_usage_error(capsys):
    for spec in ("coset:S3", "coset:S3:A3:x"):
        code, out, err = run(capsys, "morita", "--left", spec, "--right", "point:Z2")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        blob = json.loads(err)
        assert blob["kind"] == "usage" and spec in blob["error"] and "coset:G:H" in blob["error"]


def test_bvcheck_dw_refuses_presentation_flags(capsys):
    dw = ["bvcheck", "--dw", "S3"]
    cases = [
        (["--name", "lens", "--n", "3", "--p", "2"], "--name"),
        (["--n", "3"], "--n"),
        (["--p", "2"], "--p"),
        (["--window=-6:6"], "--window"),
    ]
    for extra, named in cases:
        code, out, err = run(capsys, *dw, *extra)
        assert code == 2, extra
        assert out == ""
        blob = json.loads(err)
        assert blob["kind"] == "usage" and named in blob["error"] and "--dw" in blob["error"], extra


def test_bvcheck_window_defaults_only_for_presentations(capsys):
    code, dw_out, _ = run(capsys, "bvcheck", "--dw", "S3")
    assert code == 0 and json.loads(dw_out)["basis"][0] == "{(e,0)}"
    code, out, _ = run(capsys, "bvcheck", "--name", "lens", "--n", "3", "--p", "2")
    code2, out2, _ = run(capsys, "bvcheck", "--name", "lens", "--n", "3", "--p", "2", "--window=-6:6")
    assert code == code2 == 0 and out == out2


def test_seed_only_on_seeded_verbs(capsys):
    code, out, err = run(capsys, "dw", "--group", "S3", "--seed", "1")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seed 1" in err
    code, out, _ = run(capsys, "morita", "--left", "coset:S3:Z3", "--right", "point:Z3", "--seed", "1")
    assert code == 0 and json.loads(out)["isomorphic"] is True


def test_json_integer_fields_reject_non_integers(capsys, tmp_path):
    # 1e400 used to end in an OverflowError traceback; 1.5, 2.7 and true used
    # to be read as 1, 2 and 1
    group = tmp_path / "g.json"
    group.write_text('{"name": "G", "mult": [[0, 1], [1, 0.0]]}')
    perms = tmp_path / "p.json"
    perms.write_text('{"name": "G", "perm_gens": [[1.5, 0]]}')
    diagram = '{"n": 2, "chords": [[1, 4, 3, 4]], "marks": [[1, 2], [0, 1]]'
    cactus = '{"perimeters": [[1, 2], [1, 2]], "joints": [[[1, [0, 1]], [2, [0, 1]]]], "base_offset": [1, 4]'
    lifted = '{"n": 1, "chords": [], "marks": [[0, 1]], "group": "Z2", "delta": []'
    cases = [
        (["torsion", "--group", "Z2", "--cocycle", '{"denominator": 2, "num": [[0,0],[0,1e400]]}'],
         "CocycleError", "field 'num': expected an integer, got Infinity"),
        (["torsion", "--group", "Z2", "--cocycle", '{"denominator": 2.7, "num": [[0,0],[0,1]]}'],
         "CocycleError", "field 'denominator': expected an integer, got 2.7"),
        (["torsion", "--group", "Z2", "--cocycle", '{"denominator": 2, "num": [[0,0],[0,1.5]]}'],
         "CocycleError", "got 1.5"),
        (["twisted-center", "--group", "Z2", "--cocycle", '{"denominator": true, "num": [[0,0],[0,0]]}'],
         "CocycleError", "field 'denominator': expected an integer, got true"),
        (["string-ring", "--gset", '{"group": "Z2", "act": [[0,1],[1,1e400]]}'],
         "GroupError", "field 'act': expected an integer, got Infinity"),
        (["string-ring", "--gset", '{"group": "Z2", "size": 1e400, "act": [[0,1],[1,0]]}'],
         "GroupError", "field 'size': expected an integer, got Infinity"),
        (["string-ring", "--gset", '{"group": "Z2", "size": 2.0, "act": [[0,1],[1,0]]}'],
         "GroupError", "field 'size': expected an integer, got 2.0"),
        (["group", "--group", str(group)], "GroupError", "field 'mult': expected an integer, got 0.0"),
        (["group", "--group", str(perms)], "GroupError", "field 'perm_gens': expected an integer, got 1.5"),
        (["validate", "--diagram", '{"n": 2, "chords": [[1,4,3,4]], "marks": [[1,2],[0,1e400]]}'],
         "DiagramError", "mark [0, inf]: expected an integer, got Infinity"),
        (["validate", "--diagram", '{"n": 2.5, "chords": [[1,4,3,4]], "marks": [[1,2],[0,1]]}'],
         "DiagramError", "field 'n': expected an integer, got 2.5"),
        (["validate", "--diagram", diagram + ', "interval_labels": [1, true]}'],
         "DiagramError", "field 'interval_labels': expected an integer, got true"),
        (["uncactus", "--cactus", cactus + ', "base_lobe": true}'],
         "CactusError", "field 'base_lobe': expected an integer, got true"),
        (["uncactus", "--cactus", cactus.replace("[[1, [0, 1]]", "[[1.0, [0, 1]]") + ', "base_lobe": 1}'],
         "CactusError", "lobe: expected an integer, got 1.0"),
        (["ih", "--gdiagram", lifted + ', "outer": 1e400, "lifts": [0]}'],
         "HolonomyError", "field 'outer': expected an integer, got Infinity"),
        (["ih", "--gdiagram", lifted + ', "outer": 0, "lifts": [true]}'],
         "HolonomyError", "field 'lifts': expected an integer, got true"),
    ]
    for argv, kind, named in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        blob = json.loads(err)
        assert blob["kind"] == kind and named in blob["error"], argv


def test_uncactus_unlocated_mark_is_domain_error(capsys):
    # lobes 1 and 2 meet at two joints, so no arc of the walk starts at lobe 1's mark (offset 0);
    # the two joints close a cycle of lobes, and the tree check refuses the cactus before the walk
    cactus = {
        "perimeters": [[1, 2], [1, 2]],
        "joints": [[[1, [0, 1]], [2, [1, 8]]], [[2, [1, 4]], [1, [1, 8]]]],
        "base_lobe": 1,
        "base_offset": [1, 4],
        "base_on_joint": False,
    }
    code, out, err = run(capsys, "uncactus", "--cactus", json.dumps(cactus))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "joint 1 closes a cycle through lobe 2", "kind": "CactusError"}


def test_uncactus_reader_checks_name_their_witness(capsys):
    """Each check of the cactus reader, one defect per input, through the CLI."""
    two = {"perimeters": [[1, 2], [1, 2]], "base_lobe": 1, "base_offset": [1, 4]}
    three = {"perimeters": [[1, 4], [1, 4], [1, 2]], "base_lobe": 1, "base_offset": [1, 8]}
    joint = [[1, [0, 1]], [2, [0, 1]]]
    cases = [
        ({**two, "perimeters": [[1, 2], [1, 4]], "joints": [joint]},
         "lobe perimeters must be positive and sum to 1"),
        ({**two, "joints": [joint], "base_lobe": 3}, "base point on unknown lobe 3"),
        ({**two, "joints": [joint], "base_lobe": 2, "base_offset": [1, 2]},
         "base point offset out of range on lobe 2"),
        ({**two, "joints": [[[1, [0, 1]]], [[1, [1, 8]], [2, [0, 1]]]]},
         "joint 0 touches fewer than two lobes"),
        ({**two, "joints": [[[1, [0, 1]], [3, [0, 1]]]]}, "joint 0 touches unknown lobe 3"),
        ({**two, "joints": [[[1, [0, 1]], [1, [1, 8]]]]}, "joint 0 touches lobe 1 twice"),
        ({**two, "joints": [[[1, [0, 1]], [2, [1, 2]]]]}, "joint 0 offset out of range on lobe 2"),
        ({**three, "joints": [joint, [[1, [0, 1]], [3, [0, 1]]]]}, "two joints at the same point of lobe 1"),
        # the crosswise two-lobe cactus used to leak a DiagramError ("2 regions need 1 chords, got 2")
        ({**two, "joints": [[[1, [0, 1]], [2, [1, 4]]], [[1, [1, 4]], [2, [0, 1]]]], "base_offset": [1, 8]},
         "joint 1 closes a cycle through lobe 2"),
        ({**three, "joints": [joint]}, "lobe 3 is not joined to lobe 1"),
        ({**two, "joints": []}, "lobe 2 is not joined to lobe 1"),
        ({**two, "joints": [joint], "base_on_joint": True},
         "base_on_joint contradicts the joints: the base point is not a joint incidence"),
        ({**two, "joints": [joint], "base_offset": [0, 1]},
         "base_on_joint contradicts the joints: the base point is a joint incidence"),
        # a JSON string is not a boolean, whatever it spells
        ({**two, "joints": [joint], "base_offset": [0, 1], "base_on_joint": "false"},
         "bad cactus JSON: field 'base_on_joint': expected true or false, got \"false\""),
        # a lone lobe without joints keeps its base offset in [0, r) like every other cactus
        ({"perimeters": [[1, 1]], "joints": [], "base_lobe": 1, "base_offset": [1, 1]},
         "base point offset out of range on lobe 1"),
    ]
    for cactus, message in cases:
        code, out, err = run(capsys, "uncactus", "--cactus", json.dumps(cactus))
        assert (code, out) == (1, ""), cactus
        assert json.loads(err) == {"error": message, "kind": "CactusError"}, cactus
    # the same joint with the base point on it, flagged as such, is a valid cactus
    on_joint = {**two, "joints": [joint], "base_offset": [0, 1], "base_on_joint": True}
    code, out, _ = run(capsys, "uncactus", "--cactus", json.dumps(on_joint))
    assert code == 0 and json.loads(out)["n"] == 2


def test_group_table_checks_name_their_witness(capsys, tmp_path):
    """Each check of FiniteGroup.from_table, one defect per table, through dw."""
    quasigroup = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    cases = [
        ([], "empty multiplication table"),
        ([[0, 1], [1]], "row 1 has length 1, expected 2"),
        ([[0, 1], [1, 2]], "entry out of range in row 1"),
        ([[0, 1], [-1, 0]], "entry out of range in row 1"),
        ([[1, 0], [0, 1]], "element 0 is not an identity at 0"),
        ([[0, 1, 2], [1, 1, 2], [2, 2, 0]], "row or column 1 is not a permutation"),  # row 1
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "row or column 1 is not a permutation"),  # column 1 only
        (quasigroup, "associativity fails at triple (1,1,2)"),  # a Latin square, not a group
    ]
    group = tmp_path / "g.json"
    for mult, message in cases:
        group.write_text(json.dumps({"name": "G", "mult": mult}))
        code, out, err = run(capsys, "dw", "--group", f"@{group}")
        assert (code, out) == (1, ""), mult
        assert json.loads(err) == {"error": message, "kind": "GroupError"}, mult


def _menichi_delta_entries(power):
    """Menichi's Delta(a u^k v^j) = k^power u^(k-1) v^j on lens(3,2) [-3, 6], as --delta entries."""
    P = lens_ring(3, 2)
    basis = basis_window(P, -3, 6)
    delta = lens_delta(P, -3, 6, power)
    entries = [[basis.index(m), basis.index(t), str(c)] for m, row in delta.items() for t, c in row.items()]
    return json.dumps({"entries": entries})


BVCHECK_DIGESTS = [
    (["--name", "lens", "--n", "3", "--p", "1", "--window=-3:6"],
     "aa979e030d214f95d7cf801f7c9c3cf3af7ffd061d38821962b87171b681a10a"),
    (["--name", "lens", "--n", "3", "--p", "2", "--window=-3:2"],
     "e578a79058ec003f18b9c10d28718196b6f2877e81189ca7da781093a5f96730"),
    (["--name", "lens", "--n", "3", "--p", "3", "--window=-3:0"],
     "d204112d4f63fc9c6ebb13f82d55632e5e5f442920994441a7f4581993ced496"),
    (["--name", "lens", "--n", "5", "--p", "2", "--window=-5:4"],
     "e578a79058ec003f18b9c10d28718196b6f2877e81189ca7da781093a5f96730"),
    (["--name", "sphere-quotient", "--p", "2", "--window=-2:3"],
     "000285610bf62fe9534e315adf5e0b3347680d6a97a976ef8b8864485c852a9a"),
    (["--name", "sphere-quotient", "--p", "3", "--window=-2:1"],
     "ca8dc61f647689a8848ce1d164c9e777e73be4a96af75f945f5ba8399d53e08f"),
    (["--dw", "S3"], "c6a8115a73fe16b61c50c317c4f1da56d336c03c3f4baf3e8ea2e2408ed52c98"),
    (["--dw", "S4"], "6f6da786663b88da4362a0394bb8ee1a9f089bc30bd4225ba25a738cabca1c96"),
    (["--name", "lens", "--n", "3", "--p", "2", "--window=-3:6", "--delta", _menichi_delta_entries(1)],
     "592b1dbf7d003d478f936c4426cdb3c3cf683d13081e71ddb90abd2230fc9a6a"),
    (["--name", "lens", "--n", "3", "--p", "2", "--window=-3:6", "--delta", _menichi_delta_entries(2)],
     "0ac111482a770ed366ff29b54d0ed8454b14bada36cf49141aad8cd80301a13d"),
]


def test_bvcheck_output_digests_are_pinned(capsys):
    # the benchmark's Delta = 0 windows, two degree-0 rings, and Menichi's Delta
    # on lens(3,2) with its square (which fails Jacobi)
    for argv, digest in BVCHECK_DIGESTS:
        code, out, err = run(capsys, "bvcheck", *argv, "--format", "json")
        assert code == 0 and err == "", argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_bvcheck_reports_what_held_before_the_failure(capsys):
    # the check stops at the first failure and still reports the instances it checked
    argv = BVCHECK_DIGESTS[-1][0]
    code, out, err = run(capsys, "bvcheck", *argv, "--format", "json")
    blob = json.loads(out)
    assert (code, err, blob["ok"]) == (0, "", False)
    assert blob["failures"] == [{"axiom": "jacobi", "witness": "jacobi fails at ((1, 0, 0),(1, 1, 0),(1, 2, 0))"}]
    assert blob["checked"] == {"antisym": 228, "degree": 18, "delta2": 16, "jacobi": 42, "leibniz": 43, "skipped": 98}


def test_group_reads_inline_json_like_a_file(capsys, tmp_path):
    spec = '{"name": "G", "mult": [[0,1],[1,0]]}'
    (tmp_path / "g.json").write_text(spec)
    inline, at_file = run(capsys, "group", "--group", spec), run(capsys, "group", "--group", f"@{tmp_path / 'g.json'}")
    assert inline == at_file and inline[0] == 0 and json.loads(inline[1])["mult"] == [[0, 1], [1, 0]]
    cases = [
        ('{"name": "G", "order": 3, "mult": [[0,1],[1,0]]}', "declared order 3 does not match table size 2"),
        ('{"name": "G"}', "group JSON needs 'mult' or 'perm_gens'"),
    ]
    for spec, message in cases:
        code, out, err = run(capsys, "group", "--group", spec)
        assert (code, out, json.loads(err)) == (1, "", {"error": message, "kind": "GroupError"})


@pytest.mark.parametrize(
    "argv,code,payload",
    [
        (["string-ring", "--gset", '{"group": "Z2", "act": []}'], 1, ("GroupError", "empty G-set")),
        (["string-ring", "--gset", '{"group": "Z2", "act": [[0]]}'], 1, ("GroupError", "action row 0 has wrong length")),
        (
            ["string-ring", "--gset", '{"group": "Z2", "act": [[0, 5]]}'],
            1,
            ("GroupError", "action entry out of range in row 0"),
        ),
        (
            ["string-ring", "--gset", '{"group": "Z2", "act": [[1, 0], [0, 1]]}'],
            1,
            ("GroupError", "identity does not fix point 0"),
        ),
        (
            ["string-ring", "--gset", '{"group": "Z3", "act": [[0, 1, 2], [1, 2, 1], [2, 0, 1]]}'],
            1,
            ("GroupError", "action fails at triple (point 0, 1, 2)"),
        ),
        (
            ["string-ring", "--gset", '{"group": "Z2", "size": 2, "act": [[0, 0]]}'],
            1,
            ("GroupError", "declared size 2 does not match table"),
        ),
        (
            ["string-ring", "--gset", '{"act": [[0, 0]]}'],
            1,
            ("GroupError", "G-set JSON needs a 'group' (name or inline)"),
        ),
        (
            ["torsion", "--group", "Z2", "--cocycle", '{"num": [[0, 0], [0, 0]]}'],
            1,
            ("CocycleError", "cocycle JSON needs 'denominator' and 'num'"),
        ),
        (
            ["torsion", "--group", "Z2", "--cocycle", '{"denominator": 0, "num": [[0, 0], [0, 0]]}'],
            1,
            ("CocycleError", "denominator must be positive"),
        ),
        (
            ["torsion", "--group", "Z2", "--cocycle", '{"denominator": 2, "num": [[0]]}'],
            1,
            ("CocycleError", "num must be 2x2"),
        ),
        (
            ["torsion", "--group", "Z3", "--cocycle", "nontrivial"],
            1,
            ("CocycleError", "no catalog cocycle 'nontrivial' for group Z3"),
        ),
        (["ring", "--name", "lens"], 2, ("usage", "ring lens needs --n and --p")),
        (["ring", "--name", "sphere-quotient"], 2, ("usage", "ring sphere-quotient needs --p")),
        (["ring", "--name", "torus"], 2, ("usage", "unknown ring 'torus' (expected lens or sphere-quotient)")),
        (
            ["ring", "--name", "lens", "--n", "3", "--p", "2", "--window", "3"],
            2,
            ("usage", "bad window '3'; expected LO:HI"),
        ),
        (
            ["validate", "--diagram", '{"n": 0, "marks": []}'],
            1,
            ("DiagramError", "n must be at least 1", "0"),
        ),
    ],
)
def test_reader_errors_are_pinned(capsys, argv, code, payload):
    kind, message, *witness = payload
    want = {"error": message, "kind": kind, **({"witness": witness[0]} if witness else {})}
    got = run(capsys, *argv)
    assert (got[0], got[1], json.loads(got[2])) == (code, "", want)
