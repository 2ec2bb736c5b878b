"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_circuits_listing(capsys):
    assert main(["circuits"]) == 0
    out = capsys.readouterr().out
    assert "cm150" in out
    assert "des" in out


def test_map_benchmark(capsys):
    assert main(["map", "mux", "-a", "soi"]) == 0
    out = capsys.readouterr().out
    assert "T_logic=" in out
    assert "algorithm: soi" in out


def test_map_all_algorithms_and_costs(capsys):
    for algorithm in ("domino", "rs", "soi"):
        for cost in ("area", "clock", "depth"):
            assert main(["map", "z4ml", "-a", algorithm, "-c", cost]) == 0
    assert "mapped:" in capsys.readouterr().out


def test_map_file_input(tmp_path, capsys):
    path = tmp_path / "tiny.bench"
    path.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = NAND(a, b)\n")
    assert main(["map", str(path)]) == 0
    assert "tiny" in capsys.readouterr().out


def test_map_netlist_flag(capsys):
    assert main(["map", "mux", "--netlist"]) == 0
    assert ".subckt" in capsys.readouterr().out


def test_map_dot_flag(capsys):
    assert main(["map", "mux", "--dot"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_map_kernel_flag(capsys):
    pytest.importorskip("numpy")
    assert main(["map", "mux", "--kernel", "soa"]) == 0
    out = capsys.readouterr().out
    assert "kernel:    soa (active: soa)" in out
    assert main(["map", "mux", "--kernel", "reference"]) == 0
    assert "(active: reference)" in capsys.readouterr().out


def test_batch_kernel_column(capsys):
    pytest.importorskip("numpy")
    assert main(["batch", "mux", "--serial", "--kernel", "soa"]) == 0
    out = capsys.readouterr().out
    assert "kernel" in out
    assert "soa" in out


def test_batch_sweep(capsys):
    assert main(["batch", "cm150", "mux", "-a", "domino", "-a", "soi",
                 "--serial"]) == 0
    out = capsys.readouterr().out
    assert "batch: 4 tasks" in out
    assert "T_total" in out
    assert "totals:" in out
    assert "wall:" in out


def test_batch_failure_exits_nonzero(capsys):
    assert main(["batch", "mux", "not-a-circuit", "-j", "1"]) == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    assert "not-a-circuit" in captured.err
    assert "mux" in captured.out  # good task still reported


def test_tables_subset(capsys):
    assert main(["tables", "-t", "table1", "--circuits", "cm150", "mux"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "average discharge reduction" in out


def test_pbe_clean_circuit(capsys):
    assert main(["pbe", "mux", "-a", "soi", "--cycles", "60"]) == 0
    assert "PBE-free" in capsys.readouterr().out


def test_map_profile_flag(capsys):
    assert main(["map", "mux", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out
    assert "cumulative" in out
    assert "_combine_into" in out


def test_map_json_output(capsys):
    import json

    assert main(["map", "mux", "-a", "soi", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["circuit"] == "mux"
    assert payload["flow"] == "soi"
    assert payload["cost_objective"] == "area"
    assert len(payload["digest"]) == 64
    assert payload["config"]["pbe_aware"] is True
    assert payload["stats"]["tuples_created"] > 0
    names = [p["name"] for p in payload["passes"]]
    assert names == ["decompose", "sweep", "unate", "dp-map", "discharge",
                     "analyze"]
    assert all(p["status"] == "ok" for p in payload["passes"])


def test_map_json_includes_netlist_when_asked(capsys):
    import json

    assert main(["map", "mux", "--json", "--netlist"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert ".subckt" in payload["netlist"]


def test_map_text_output_shows_pass_timings(capsys):
    assert main(["map", "mux", "-a", "soi"]) == 0
    out = capsys.readouterr().out
    assert "passes:" in out
    assert "dp-map=" in out


def test_map_checkpoint_resume(tmp_path, capsys):
    import json

    ckpt = tmp_path / "ckpt"
    assert main(["map", "mux", "-a", "soi", "--checkpoint", str(ckpt),
                 "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert (ckpt / "manifest.json").is_file()
    assert main(["map", "mux", "-a", "soi", "--checkpoint", str(ckpt),
                 "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["digest"] == first["digest"]
    assert all(p["status"] == "resumed" for p in second["passes"])


def test_passes_listing(capsys):
    assert main(["passes"]) == 0
    out = capsys.readouterr().out
    assert "registered passes:" in out
    for name in ("decompose", "sweep", "unate", "dp-map", "rearrange",
                 "discharge", "analyze"):
        assert name in out
    assert "flow pass lists:" in out


def test_passes_json(capsys):
    import json

    assert main(["passes", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [p["name"] for p in payload["passes"]]
    assert "dp-map" in names
    assert payload["flows"]["rs"] == ["decompose", "sweep", "unate",
                                      "dp-map", "rearrange", "discharge",
                                      "analyze"]


def test_error_reported_cleanly(capsys):
    assert main(["map", "not-a-circuit"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_rejected():
    for argv in (["frobnicate"], ["bench"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["map", "cm150", "--cost", "clock", "-k", "nan"],
    ["map", "cm150", "--cost", "clock", "-k", "inf"],
    ["map", "cm150", "--cost", "clock", "-k", "0"],
    ["map", "cm150", "-k", "x"],
    ["batch", "cm150", "--cost", "clock", "-k", "nan"],
    ["metrics", "cm150", "--cost", "clock", "-k", "-inf"],
])
def test_bad_clock_weight_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument -k:" in err
    assert "Traceback" not in err
