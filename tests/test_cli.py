"""Command-line surface: outputs, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from chiralattice.cli import main
from chiralattice.interfaces import DensityRecord
from chiralattice.molecules import Window, phase_pattern, validate
from chiralattice.svgout import configuration_svg


@pytest.fixture
def single_r(tmp_path):
    path = tmp_path / "single_r.json"
    path.write_text('[{"shape": "R", "anchor": [0, 0]}]\n')
    return str(path)


@pytest.fixture
def overlapping(tmp_path):
    path = tmp_path / "overlap.json"
    path.write_text(
        '[{"shape": "R", "anchor": [0, 0]}, {"shape": "R", "anchor": [0, 0]}]\n'
    )
    return str(path)


def test_energy_single_r(single_r, capsys):
    assert main(["energy", single_r]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["perimeter"] == "10"
    assert out["weighted_perimeter"] == "10"
    assert out["volume_deficit"] is None


def test_energy_weights_and_window(single_r, capsys):
    assert main(["energy", single_r, "--weights", "2,1", "--window", "100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["weighted_perimeter"] == "20"
    assert out["volume_deficit"] == "9996"


def test_energy_overlap_exit_2(overlapping, capsys):
    assert main(["energy", overlapping]) == 2
    err = capsys.readouterr().err
    assert "(0, 0)" in err  # names the conflicting cell


def test_energy_byte_determinism(single_r, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["energy", single_r, "--out", str(out1)]) == 0
    capsys.readouterr()
    assert main(["energy", single_r, "--out", str(out2)]) == 0
    a, b = out1.read_bytes(), out2.read_bytes()
    # identical manifests up to the output path; normalize and compare
    assert a.replace(b"a.json", b"x.json") == b.replace(b"b.json", b"x.json")


def test_density_rows(capsys, tmp_path):
    csv = tmp_path / "table.csv"
    assert main(["density", "1", "0", "1", "1", "8,12", "--csv", str(csv)]) == 0
    lines = [l for l in csv.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == "i,j,p,q,T,energy_kind,c_R,c_S,value,phi_hat,certificate,nodes"
    rows = [l.split(",") for l in lines[1:]]
    assert [r[4] for r in rows] == ["8", "12"]
    assert all(r[10] == "exact" for r in rows)
    assert rows[0][9] == "3/2" and rows[1][9] == "5/3"


def test_empty_configuration_svg():
    # with no cell to frame, the view is the square [-1, 1]^2 and draws nothing
    svg = configuration_svg(validate([]))
    assert 'viewBox="-1.0000 -1.0000 2.0000 2.0000"' in svg
    assert "<rect" not in svg and svg.endswith("</svg>\n")


def test_density_usage_error(capsys):
    assert main(["density", "1", "1", "1", "1", "8"]) == 2


def test_wulff_json_and_svg(tmp_path, capsys):
    svg = tmp_path / "w.svg"
    js = tmp_path / "w.json"
    assert main(["wulff", "1", "--svg", str(svg), "--json", str(js)]) == 0
    payload = json.loads(js.read_text())
    assert len(payload["phases"]["1"]["level_set"]) == 6
    assert len(payload["phases"]["1"]["wulff"]) == 6
    assert svg.read_text().startswith("<?xml")
    capsys.readouterr()
    assert main(["wulff", "all", "--json", str(js)]) == 0
    payload = json.loads(js.read_text())
    assert len(payload["phases"]) == 8
    assert len(payload["spin_envelope"]["level_set"]) == 8


def test_lemma_exit_codes(tmp_path, capsys):
    assert main(["lemma", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True
    flat = Path("data/shapes/flat_pair.json")
    svg = tmp_path / "witness.svg"
    assert main(["lemma", "4", "--shapes", str(flat), "--witness-svg", str(svg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is False
    assert svg.exists()
    assert main(["lemma", "4", "--cap", "1"]) == 3


def test_decompose_and_exit_codes(tmp_path, capsys):
    # continuum-anchor seam fixture at eps = 1/8
    eps_den = 8
    wlat = Window.square(4 * eps_den + 16)
    entries = []
    for m in phase_pattern(1, wlat):
        if all(c[0] + 1 <= 0 for c in m.cells()):
            entries.append(
                {"shape": "R", "anchor": [str(F(m.anchor[0], eps_den)), str(F(m.anchor[1], eps_den))]}
            )
    cfg = tmp_path / "seam.json"
    cfg.write_text(json.dumps(entries))
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"1": [["-2", "-2", "0", "2"]]}))
    assert main([
        "decompose", str(cfg), "--epsilon", "1/8", "--window", "4",
        "--target", str(target),
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["runs"][0]["epsilon"] == "1/8"
    assert "convergence" in out
    # incompatible epsilon -> exit 2
    assert main(["decompose", str(cfg), "--epsilon", "1/7", "--window", "4"]) == 2


def test_limit_and_anchoring(tmp_path, capsys):
    part = {
        "window": [["-2", "-2"], ["2", "-2"], ["2", "2"], ["-2", "2"]],
        "regions": {
            "0": [
                [["-2", "-2"], ["2", "-2"], ["2", "0"], ["-2", "0"]],
                [["-2", "0"], ["0", "0"], ["0", "1"], ["-2", "1"]],
                [["1", "0"], ["2", "0"], ["2", "1"], ["1", "1"]],
                [["-2", "1"], ["2", "1"], ["2", "2"], ["-2", "2"]],
            ],
            "1": [[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]],
        },
    }
    ppath = tmp_path / "part.json"
    ppath.write_text(json.dumps(part))
    assert main(["limit", str(ppath)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == "7"
    # all-empty partition prices to zero
    zero = {
        "window": part["window"],
        "regions": {"0": [part["window"]]},
    }
    zpath = tmp_path / "zero.json"
    zpath.write_text(json.dumps(zero))
    assert main(["limit", str(zpath)]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == "0"
    # anchoring against a mismatched exterior
    ext = {
        "window": None,
        "regions": {"2": [[["-9", "-9"], ["9", "-9"], ["9", "9"], ["-9", "9"]]]},
    }
    epath = tmp_path / "ext.json"
    epath.write_text(json.dumps(ext))
    island = {
        "window": None,
        "regions": {"1": [[["-9", "-9"], ["9", "-9"], ["9", "9"], ["-9", "9"]]]},
    }
    ipath = tmp_path / "island.json"
    ipath.write_text(json.dumps(island))
    assert main(["limit", str(ipath), "--exterior", str(epath)]) == 2  # no window
    # use the windowed partition for the anchoring report instead
    assert main(["limit", str(ppath), "--exterior", str(epath)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["anchored_admissible"] is False
    # invalid partition -> exit 2
    bad = {"window": part["window"], "regions": {"1": part["regions"]["1"]}}
    bpath = tmp_path / "bad.json"
    bpath.write_text(json.dumps(bad))
    assert main(["limit", str(bpath)]) == 2


def test_cluster_cli(tmp_path, capsys):
    assert main(["cluster", "1", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "10"
    assert main(["cluster", "5", "5"]) == 3


def test_density_csv_appends(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    assert main(["density", "1", "0", "1", "1", "8", "--csv", str(csv)]) == 0
    assert main(["density", "1", "0", "0", "1", "8", "--csv", str(csv)]) == 0
    lines = [l for l in csv.read_text().splitlines() if l]
    assert sum(1 for l in lines if l.startswith("# manifest")) == 2
    assert sum(1 for l in lines if l.startswith("i,")) == 1
    assert len([l for l in lines if not l.startswith(("#", "i,"))]) == 2
    # each run's manifest heads the rows that run wrote
    sections = []
    for line in lines:
        if line.startswith("# manifest: "):
            sections.append((json.loads(line[len("# manifest: "):])["parameters"], []))
        elif not line.startswith("i,"):
            sections[-1][1].append(line.split(","))
    assert [(p["p"], p["q"], p["T"]) for p, _ in sections] == [(1, 1, "8"), (0, 1, "8")]
    for params, rows in sections:
        assert [row[:5] for row in rows] == [
            [str(params[k]) for k in ("i", "j", "p", "q", "T")]
        ]


def test_limit_svg_and_table_refinement(tmp_path, capsys):
    part = {
        "window": None,
        "regions": {"1": [[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]]},
    }
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps(part))
    svg = tmp_path / "p.svg"
    assert main(["limit", str(ppath), "--svg", str(svg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == "7"
    text = svg.read_text()
    assert "<svg" in text and "0|1" in text  # per-segment price labels
    # refining the model with a table row changes the priced value
    csv = tmp_path / "t.csv"
    assert main(["density", "1", "0", "0", "1", "8", "--csv", str(csv)]) == 0
    capsys.readouterr()
    assert main(["limit", str(ppath), "--table", str(csv)]) == 0
    refined = json.loads(capsys.readouterr().out)
    assert any(s["source"].startswith("table") for s in refined["segments"])


def test_decompose_regions_csv(tmp_path, capsys):
    wlat = Window.square(4 * 8 + 16)
    entries = [
        {"shape": "R", "anchor": [str(F(m.anchor[0], 8)), str(F(m.anchor[1], 8))]}
        for m in phase_pattern(1, wlat)
    ]
    cfg = tmp_path / "pat.json"
    cfg.write_text(json.dumps(entries))
    prefix = tmp_path / "regions"
    assert main([
        "decompose", str(cfg), "--epsilon", "1/8", "--window", "4",
        "--regions-csv", str(prefix),
    ]) == 0
    files = sorted(tmp_path.glob("regions_*label1.csv"))
    assert files and files[0].read_text().startswith("x0,y0,x1,y1")


def test_preset_file(tmp_path, capsys, single_r):
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({"weights": "2,1", "cluster_cap": 2}))
    assert main(["--preset", str(preset), "energy", single_r]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["weighted_perimeter"] == "20"
    assert main(["--preset", str(preset), "cluster", "2", "1"]) == 3


def test_density_meshing_regime(tmp_path, capsys):
    # R phase against S phase along the anti-diagonal stays at or below
    # the meshing value 2 on the phi-hat scale
    assert main(["density", "1", "7", "1", "-1", "8,12"]) == 0
    out = capsys.readouterr().out
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith(("#", "i,"))]
    for row in rows:
        assert F(row[9]) <= 2


def test_density_witness_dump(tmp_path, capsys):
    wdir = tmp_path / "wit"
    assert main([
        "density", "1", "0", "1", "1", "8", "--witness-dir", str(wdir),
    ]) == 0
    files = list(wdir.glob("witness_*.svg"))
    assert len(files) == 1
    assert files[0].read_text().startswith("<?xml")


def test_density_small_t_exit_2(capsys):
    assert main(["density", "1", "0", "1", "1", "7"]) == 2
    assert "T must be at least 8" in capsys.readouterr().err
    assert main(["density", "1", "0", "0", "0", "8"]) == 2
    assert "direction cannot be zero" in capsys.readouterr().err


def test_deep_truncated_density_exits_0(capsys):
    # a volume solve deep enough to have overflowed a recursive search
    argv = ["density", "1", "0", "1", "1", "72", "--kind", "volume", "--budget", "5000"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].endswith(",upper_bound,5000")
    assert err == "note: some certificates are upper_bound (budget)\n"


def test_limit_short_table_row_exit_2(tmp_path, capsys):
    part = {
        "window": None,
        "regions": {"1": [[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]]},
    }
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps(part))
    csv = tmp_path / "short.csv"
    csv.write_text("i,j,p,q\n1,0,0,1\n")
    assert main(["limit", str(ppath), "--table", str(csv)]) == 2
    assert "12 fields" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    ["1,0,0,1,8,surface,1,1,1,-5,exact,3", "1,0,0,1,8,surface,1,1,40,7,exact,3"],
    ids=["negative", "phi_hat"],
)
def test_limit_inconsistent_table_row_exit_2(tmp_path, capsys, row):
    # the 2x2 square prices 14 without a table; a row whose phi_hat is not
    # value / T must not reprice its bottom edge
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps({"regions": {"1": [[[0, 0], [2, 0], [2, 2], [0, 2]]]}}))
    assert main(["limit", str(ppath)]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == "14"
    csv = tmp_path / "t.csv"
    csv.write_text(f"{DensityRecord.CSV_COLUMNS}\n{row}\n")
    assert main(["limit", str(ppath), "--table", str(csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "phi_hat" in captured.err
    assert "Traceback" not in captured.err


def test_density_record_csv_round_trip():
    from chiralattice.interfaces import DensityRecord

    rec = DensityRecord(1, 0, -1, 1, 16, "surface", F(1), F(1, 4), F(105, 4),
                        F(105, 64), "exact", 13978)
    assert DensityRecord.from_csv_row(rec.csv_row()) == rec


def test_palette_preset_does_not_leak(tmp_path, capsys):
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({"palette": ["#000000"] + ["#123456"] * 8}))
    svg = tmp_path / "a.svg"
    assert main(["--preset", str(preset), "cluster", "1", "0", "--svg", str(svg)]) == 0
    assert "#123456" in svg.read_text()
    assert main(["cluster", "1", "0", "--svg", str(svg)]) == 0
    capsys.readouterr()
    text = svg.read_text()
    assert "#123456" not in text
    assert "#a65628" in text  # the default colour of R(0, 0), phase 4


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--window", "0"], "window side must be positive"),
        (["--window", "abc"], "invalid window"),
        (["--window", "4,1/2"], "SIDE or SIDE,CX,CY"),
        (["--window", "4,x,0"], "invalid window"),
        (["--weights", "0,1"], "weights must be positive"),
        (["--weights", "1,-1/4"], "weights must be positive"),
        (["--weights", "a,1"], "invalid weights"),
    ],
)
def test_energy_bad_window_or_weights_exit_2(single_r, capsys, argv, message):
    assert main(["energy", single_r] + argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lemma", "1"], "k must be at least 2"),
        (["cluster", "-1", "0"], "nonnegative counts"),
        (["cluster", "0", "0"], "r + s >= 1"),
        (["wulff", "9"], "phase label 9 out of range 1..8"),
        (["wulff", "abc"], "1..8 or 'all'"),
    ],
)
def test_bad_subcommand_arguments_exit_2(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "epsilon, message",
    [
        ("abc", "invalid epsilon"),
        ("1/0", "invalid epsilon"),
        ("0", "epsilon must be positive"),
        ("1/8,-1/8", "epsilon must be positive"),
        ("1/8,1/16", "need one configuration file per epsilon"),
    ],
)
def test_decompose_bad_epsilon_exit_2(single_r, capsys, epsilon, message):
    argv = ["decompose", single_r, "--epsilon", epsilon, "--window", "4"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, argv, message",
    [
        ({"weights": [1, 2]}, ["energy", "CFG"], "preset weights must be a string"),
        ({"budget": "abc"}, ["density", "1", "0", "1", "1", "16"], "invalid preset budget"),
        ({"cluster_cap": [3]}, ["cluster", "1", "0"], "invalid preset cluster_cap"),
        ({"palette": 5}, ["cluster", "1", "0"], "9 colors"),
        ([1], ["cluster", "1", "0"], "preset must be a JSON object"),
        ({"budget": 5.7}, ["density", "1", "0", "1", "1", "8"], "invalid preset budget"),
        ({"budget": "5"}, ["density", "1", "0", "1", "1", "8"], "invalid preset budget"),
        ({"budget": True}, ["density", "1", "0", "1", "1", "8"], "invalid preset budget"),
        ({"cluster_cap": 2.0}, ["cluster", "1", "0"], "invalid preset cluster_cap"),
    ],
)
def test_bad_preset_exit_2(tmp_path, capsys, single_r, preset, argv, message):
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(preset))
    argv = [single_r if a == "CFG" else a for a in argv]
    assert main(["--preset", str(path)] + argv) == 2
    assert message in capsys.readouterr().err


CORPUS_FILES = {
    "cfg_list": [1, 2],
    "cfg_short": [{"shape": "R", "anchor": [0]}],
    "part_int": {"regions": {"1": [[0, 0]]}},
    "part_list": {"regions": [1]},
    "part_top": [1],
    "shapes_int": [1],
    "shapes_empty": {},
    "cfg_frac": [{"shape": "R", "anchor": [1.5, 0]}],
    "cfg_bool": [{"shape": "R", "anchor": [True, 0]}],
    "cfg_float": [{"shape": "R", "anchor": [0.5, 0]}],
    "cfg_three": [{"shape": "R", "anchor": [0, 0, 7]}],
    "target": {"1": [["-2", "-2", "0", "2"]]},
    "target_float": {"1": [[0.1, 0, 1, 1]]},
    "target_bool": {"1": [[False, 0, 1, 1]]},
    "target_label": {"9": [[0, 0, 1, 1]]},
    "target_repeat": {"1": [[0, 0, 2, 2]], "01": [[5, 5, 6, 6]]},
    "part_float": {"window": None, "regions": {"1": [[[0.5, 0], [1, 0], [1, 1], [0, 1]]]}},
    "part_bool": {"window": None, "regions": {"1": [[[False, 0], [True, 0], [1, 1], [0, 1]]]}},
    "part_nested": {"window": None, "regions": {
        "1": [[[0, 0], [4, 0], [4, 4], [0, 4]]], "2": [[[1, 1], [2, 1], [2, 2], [1, 2]]],
    }},
    "part_repeat": {"window": None, "regions": {
        "1": [[[0, 0], [2, 0], [2, 2], [0, 2]]], "01": [[[5, 5], [6, 5], [6, 6], [5, 6]]],
    }},
    # phase 1 on the eps = 1/2 grid, so a window of 20 has label-1 squares
    "cfg_phase1": [
        {"shape": "R", "anchor": [f"{a}/2", f"{b}/2"]}
        for a in range(-24, 24) for b in range(-24, 24) if (a + b) % 4 == 1
    ],
    **{
        f"shapes_{kind}": [{
            "name": "X", "cells": [[0, 0], [0, 1], [0, 2], [cell, 2]],
            "chirality_class": "R-like",
        }]
        for kind, cell in (("float", 1.7), ("str", "1"), ("bool", True))
    },
    # a fifth cell repeating the first: four distinct cells, but not four cells
    "shapes_five": [{
        "name": "X", "cells": [[0, 0], [0, 0], [0, 1], [0, 2], [1, 2]],
        "chirality_class": "R-like",
    }],
    "shapes_triple": [{
        "name": "X", "cells": [[0, 0], [0, 1], [0, 2], [1, 2, 0]],
        "chirality_class": "R-like",
    }],
    "palette_int": {"palette": list(range(1, 10))},
    "palette_attr": {"palette": ['x" onload="alert(1)', *["#abc"] * 8]},
    "palette_hex": {"palette": ["#12345", *["red"] * 8]},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "cfg_list"],
        ["energy", "cfg_short"],
        ["decompose", "cfg_list", "--epsilon", "1", "--window", "4"],
        ["decompose", "cfg_short", "--epsilon", "1", "--window", "4"],
        ["limit", "part_int"],
        ["limit", "part_list"],
        ["limit", "part_top"],
        ["energy", "CFG", "--shapes", "shapes_int"],
        ["lemma", "3", "--shapes", "shapes_int"],
        ["decompose", "CFG", "CFG", "--epsilon", "1/2,1", "--window", "4", "--target", "target"],
        ["energy", "CFG", "--out", "MISSING_DIR/x.json"],
        ["lemma", "3", "--shapes", "shapes_empty"],
        ["energy", "cfg_frac"],
        ["lemma", "3", "--shapes", "shapes_float"],
        ["lemma", "3", "--shapes", "shapes_str"],
        ["lemma", "3", "--shapes", "shapes_bool"],
        ["energy", "CFG", "--shapes", "shapes_five"],
        ["lemma", "3", "--shapes", "shapes_five"],
        ["energy", "CFG", "--shapes", "shapes_triple"],
        ["decompose", "CFG", "--epsilon", "1", "--window", "4", "--target", "target_float"],
        ["decompose", "CFG", "--epsilon", "1", "--window", "4", "--target", "target_bool"],
        ["decompose", "CFG", "--epsilon", "1", "--window", "4", "--target", "target_label"],
        ["limit", "part_float"],
        ["limit", "part_bool"],
        ["decompose", "CFG", "--epsilon", "1", "--window", "4", "--target", "target_repeat"],
        ["limit", "part_repeat"],
        ["energy", "cfg_bool"],
        ["energy", "cfg_three"],
        ["decompose", "cfg_float", "--epsilon", "1/2", "--window", "4"],
        ["decompose", "cfg_bool", "--epsilon", "1/2", "--window", "4"],
        ["decompose", "cfg_three", "--epsilon", "1/2", "--window", "4"],
        ["limit", "part_nested"],
        ["decompose", "cfg_phase1", "cfg_phase1", "--epsilon", "1/2,1/2", "--window", "20",
         "--regions-csv", "cfg_phase1"],
        ["wulff", "1", "--svg", "target", "--json", "target"],
        ["--preset", "palette_int", "cluster", "1", "0", "--svg", "target"],
        ["--preset", "palette_attr", "cluster", "1", "0", "--svg", "target"],
        ["--preset", "palette_hex", "cluster", "1", "0", "--svg", "target"],
    ],
)
def test_malformed_input_exit_2(tmp_path, capsys, single_r, argv):
    for name, value in CORPUS_FILES.items():
        (tmp_path / name).write_text(json.dumps(value))
    names = {"CFG": single_r, "MISSING_DIR/x.json": str(tmp_path / "no" / "x.json")}
    argv = [names.get(a, str(tmp_path / a) if a in CORPUS_FILES else a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no result printed, not even before a failed write
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_stdout_is_independent_of_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in (["density", "1", "0", "1", "1", "8,12"], ["lemma", "4"], ["cluster", "2", "1"]):
        outs = [
            subprocess.run(
                [sys.executable, "-m", "chiralattice.cli", *argv],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True, timeout=60, check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outs[0] == outs[1] and outs[0], argv


def test_preset_cap_fills_only_an_unset_cluster_cap(tmp_path, capsys):
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({"cluster_cap": 2}))
    assert main(["--preset", str(preset), "lemma", "4", "--cap", "6"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["manifest"]["parameters"]["cap"] == 6
    assert out["search_space"]["coverings"] == 6
    assert main(["--preset", str(preset), "cluster", "2", "1", "--cap", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["parameters"]["cap"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "1", "0", "1", "1", "8", "--budget", "0"],
        ["density", "1", "0", "1", "1", "8", "--budget", "-5"],
        ["lemma", "4", "--cap", "0"],
        ["lemma", "4", "--cap", "-1"],
        ["cluster", "2", "2", "--cap", "-3"],
        ["--preset", "PRESET", "density", "1", "0", "1", "1", "8"],
    ],
)
def test_non_positive_budget_or_cap_exit_2(tmp_path, capsys, argv):
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({"budget": 0}))
    assert main([str(preset) if a == "PRESET" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def _mutate(value, rng):
    """The JSON value with one random node changed: a dropped key, a value
    of another type, a truncated list or a non-numeric string."""
    if isinstance(value, (list, dict)) and value and rng.random() < 0.7:
        keys = list(range(len(value))) if isinstance(value, list) else sorted(value)
        key = rng.choice(keys)
        out = list(value) if isinstance(value, list) else dict(value)
        out[key] = _mutate(value[key], rng)
        return out
    op = rng.randrange(4)
    if op == 0 and isinstance(value, dict) and value:
        out = dict(value)
        del out[rng.choice(sorted(out))]
        return out
    if op == 1 and isinstance(value, list) and value:
        return value[: rng.randrange(len(value))]
    if op == 2:
        return rng.choice(["abc", "1/0", "", "x,y"])
    return rng.choice([0, -1, 1.5, True, None, "7", [], {}, [0, 0], {"0": 1}])


def test_cli_fuzz_exit_codes(tmp_path, capsys):
    """Mutated inputs either run or exit 2 (3 when a cap is reached)."""
    rng = random.Random(20260)
    flat_pair = json.loads(Path("data/shapes/flat_pair.json").read_text())
    fixtures = {
        "energy": ([{"shape": "R", "anchor": [0, 0]}, {"shape": "S", "anchor": [5, 3]}],
                   ["energy", "FILE", "--window", "12"]),
        "decompose": ([{"shape": "R", "anchor": ["0", "1/2"]}, {"shape": "S", "anchor": ["3", "1"]}],
                      ["decompose", "FILE", "--epsilon", "1/2", "--window", "4"]),
        "limit": ({
            "window": [["0", "0"], ["2", "0"], ["2", "1"], ["0", "1"]],
            "regions": {"0": [[["1", "0"], ["2", "0"], ["2", "1"], ["1", "1"]]],
                        "1": [[["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]]},
        }, ["limit", "FILE"]),
        "lemma": (flat_pair, ["lemma", "3", "--shapes", "FILE"]),
    }
    path = tmp_path / "input.json"
    codes = []
    for _ in range(60):
        for value, argv in fixtures.values():
            for _ in range(rng.randint(1, 2)):
                value = _mutate(value, rng)
            path.write_text(json.dumps(value))
            codes.append(main([str(path) if a == "FILE" else a for a in argv]))
            capsys.readouterr()
    assert set(codes) <= {0, 2, 3}
    assert {0, 2} <= set(codes)


DENSITY_PINS = [
    # argv, then the sha256 of stdout, of the --csv file (the same bytes:
    # manifest, header and rows) and of each witness SVG in T order
    (
        ["density", "1", "5", "1", "1", "8,12"],
        "f8c850ea0ac38d972ec53641bc1c58f4d26eac89cc7130f952e071fde5fee03f",
        "f8c850ea0ac38d972ec53641bc1c58f4d26eac89cc7130f952e071fde5fee03f",
        [
            "7fa7363e755f35e661f35a6301afec8d34e6230714265f7e54a15f6671919086",
            "8e426de67b63c91d5aef11e7ab050708b766f4bbd58879f68f1480eea49af2a9",
        ],
    ),
    (
        ["density", "1", "0", "-1", "1", "16", "--weights", "1,1/4"],
        "3a8a7247974bab54835461faf9cc6f208fad2cbd660e9edf9a790a13692b97fc",
        "3a8a7247974bab54835461faf9cc6f208fad2cbd660e9edf9a790a13692b97fc",
        ["3abcc397811363f21692c779621fe30205bd778efbce95dd97afb4fff9c722f9"],
    ),
]


@pytest.mark.parametrize(
    "argv, stdout_sha, csv_sha, svg_shas", DENSITY_PINS, ids=["1_5_T8_12", "wetting_T16"]
)
def test_density_output_bytes_pinned(
    argv, stdout_sha, csv_sha, svg_shas, tmp_path, monkeypatch, capsys
):
    """stdout, the CSV and the witness SVGs keep their bytes; the witnesses
    draw the solved configurations, so a changed family build shows here."""

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    monkeypatch.chdir(tmp_path)  # relative paths keep the manifest fixed
    assert main(argv + ["--csv", "rows.csv", "--witness-dir", "wit"]) == 0
    assert sha(capsys.readouterr().out.encode()) == stdout_sha
    assert sha((tmp_path / "rows.csv").read_bytes()) == csv_sha
    svgs = sorted((tmp_path / "wit").glob("*.svg"), key=lambda f: int(f.stem.rsplit("T", 1)[1]))
    assert [sha(f.read_bytes()) for f in svgs] == svg_shas


def _seam_file(path: Path, den: int) -> None:
    """The criterion-10 seam at eps = 1/den as continuum anchors: phase 1
    left of x = 0 and phase 2 right of it, with an empty column between."""
    wlat = Window.square(4 * den + 16)
    mols = [m for m in phase_pattern(1, wlat) if all(c[0] + 1 <= 0 for c in m.cells())]
    mols += [m for m in phase_pattern(2, wlat) if all(c[0] >= 1 for c in m.cells())]
    path.write_text(json.dumps([
        {"shape": "R", "anchor": [str(F(m.anchor[0], den)), str(F(m.anchor[1], den))]}
        for m in mols
    ]))


def _third_seventh_partition():
    """A window partition with vertices on the 1/3 and 1/7 grids, and an
    exterior island whose edges cross its edges between vertices."""
    w0, w1, w2, w3 = ["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]
    p, q = ["2/3", "5/7"], ["10/7", "4/3"]
    part = {
        "window": [w0, w1, w2, w3],
        "regions": {
            "0": [[q, w2, p]], "1": [[w0, w1, p]], "2": [[w1, w2, q]],
            "3": [[w3, w0, p]], "5": [[p, w1, q]], "7": [[w2, w3, p]],
        },
    }
    exterior = {"window": None, "regions": {"1": [[["-1/3", "-1"], ["3", "1/7"], ["1", "3"]]]}}
    return part, exterior


def test_decompose_and_limit_output_bytes_pinned(tmp_path, monkeypatch, capsys):
    """stdout and the output files of `decompose` (off-centre window, a
    target, per-label CSVs) and of `limit` (an exterior, an SVG) keep their
    bytes."""

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    monkeypatch.chdir(tmp_path)  # relative paths keep the manifest fixed
    _seam_file(tmp_path / "seam8.json", 8)
    _seam_file(tmp_path / "seam16.json", 16)
    (tmp_path / "target.json").write_text(
        json.dumps({"1": [["-2", "-2", "0", "2"]], "2": [["0", "-2", "2", "2"]]})
    )
    assert main([
        "decompose", "seam8.json", "seam16.json", "--epsilon", "1/8,1/16",
        "--window", "3,1/3,-1/7", "--target", "target.json", "--regions-csv", "reg",
    ]) == 0
    assert sha(capsys.readouterr().out.encode()) == DECOMPOSE_PIN
    csvs = {f.name: sha(f.read_bytes()) for f in sorted(tmp_path.glob("reg_*.csv"))}
    assert csvs == DECOMPOSE_CSV_PINS

    part, exterior = _third_seventh_partition()
    (tmp_path / "part.json").write_text(json.dumps(part))
    (tmp_path / "ext.json").write_text(json.dumps(exterior))
    assert main(["limit", "part.json", "--exterior", "ext.json", "--svg", "part.svg"]) == 0
    assert sha(capsys.readouterr().out.encode()) == LIMIT_PIN
    assert sha((tmp_path / "part.svg").read_bytes()) == LIMIT_SVG_PIN


DECOMPOSE_PIN = "82377675f284aed01c57f72bfd08b5977c6b56fac7d12eb44f23e8b6625dfe77"
DECOMPOSE_CSV_PINS = {
    "reg_eps1_16_label1.csv": "fd450d28645c9caa03f8f640b6dab6e8cd1c1640e0b17d21b14f1e91c7c4ae43",
    "reg_eps1_16_label2.csv": "639fba0659654a7b257c7d72ac34fd18c05cd3bcdfb0103bb8f8c43bad80e32a",
    "reg_eps1_8_label2.csv": "2e9e1c02756a10e2af7c0ecf69d4786c5a12b5208d05c96ae9bc8395b2b87789",
}
LIMIT_PIN = "4551901c3cefd59ad6838d6049ea88ebafb228692e0885f3d38d2c4aaee31595"  # total 503/14
LIMIT_SVG_PIN = "53441165cd6f0525753b8c44aeb822011d2fb88c6d3e3bada8e54ec836839d41"


FLAT_PAIR_FILE = str(Path(__file__).resolve().parent.parent / "data" / "shapes" / "flat_pair.json")

# every subcommand with every output option it takes
WRITES = {
    "energy": ["energy", "one.json", "--out", "e.json"],
    "density_new_table": [
        "density", "1", "0", "1", "1", "8,12", "--csv", "t.csv", "--witness-dir", "wd",
    ],
    "density_existing_table": [
        "density", "1", "0", "1", "1", "8,12", "--csv", "old.csv", "--witness-dir", "wd",
    ],
    "wulff": ["wulff", "1", "--svg", "w.svg", "--json", "w.json"],
    "wulff_all": ["wulff", "all", "--svg", "w.svg", "--json", "w.json"],
    "lemma_holds": ["lemma", "4", "--witness-svg", "l.svg", "--json", "l.json"],
    "lemma_flat_pair": [
        "lemma", "4", "--shapes", FLAT_PAIR_FILE, "--witness-svg", "l.svg", "--json", "l.json",
    ],
    "decompose": [
        "decompose", "seam8.json", "--epsilon", "1/8", "--window", "4",
        "--regions-csv", "reg", "--out", "d.json",
    ],
    "limit": ["limit", "part.json", "--svg", "p.svg", "--out", "l.json"],
    "cluster": ["cluster", "1", "0", "--svg", "c.svg", "--json", "c.json"],
}


@pytest.mark.parametrize("case", sorted(WRITES))
def test_manifest_lists_exactly_the_files_written(case, tmp_path, monkeypatch, capsys):
    """`outputs` names each file the run created or changed, and no other."""

    def files() -> dict:
        return {
            str(f.relative_to(tmp_path)): f.read_bytes()
            for f in tmp_path.rglob("*") if f.is_file()
        }

    monkeypatch.chdir(tmp_path)
    (tmp_path / "one.json").write_text('[{"shape": "R", "anchor": [0, 0]}]\n')
    _seam_file(tmp_path / "seam8.json", 8)
    (tmp_path / "part.json").write_text(json.dumps(_third_seventh_partition()[0]))
    assert main(["density", "1", "0", "0", "1", "8", "--csv", "old.csv"]) == 0
    capsys.readouterr()
    before = files()
    assert main(WRITES[case]) == 0
    out = capsys.readouterr().out
    manifest = (
        json.loads(out.splitlines()[0].removeprefix("# manifest: "))
        if case.startswith("density") else json.loads(out)["manifest"]
    )
    written = sorted(path for path, data in files().items() if before.get(path) != data)
    assert manifest["outputs"] == written
