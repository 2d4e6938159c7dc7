import gc
import hashlib
import itertools
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

import dacqo.cli
from dacqo.cli import EXIT_CAPABILITY, EXIT_CONFIG, EXIT_NUMERICAL, main
from dacqo.synthesis import SYNTHESIS_PATHS


@pytest.fixture
def runner():
    return CliRunner()


def _must_not_run(*args, **kwargs):
    raise AssertionError("called past the width cap")


class TestSolve:
    def test_small_instance(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, [
            "solve", "--n", "4", "--steps", "2", "--trajectories", "4",
            "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["n_qubits"] == 4
        assert 0.0 <= report["success_probability"] <= 1.0
        assert report["depth"] > 0

    def test_reports_kernel_applications(self, runner, monkeypatch):
        from dacqo import _kernels

        calls = []
        apply_unitary = _kernels.apply_unitary

        def counted(state, u, qubits, n, **kwargs):
            calls.append(n)
            return apply_unitary(state, u, qubits, n, **kwargs)

        monkeypatch.setattr(_kernels, "apply_unitary", counted)
        result = runner.invoke(main, [
            "solve", "--n", "4", "--steps", "2", "--c", "0.05",
            "--trajectories", "4",
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        keys = list(report)
        assert keys.index("kernel_applications") == keys.index("trajectories") + 1
        # at N=4 every gate is its own group: one state-kernel call per gate
        assert report["kernel_applications"] == calls.count(4) > 0

    def test_same_bytes_from_any_directory(self, runner, tmp_path):
        # the graph and the report under two directories, given as
        # absolute paths: the config records the graph by name and hash
        from dacqo.problem import random_graph

        text = random_graph(6, 3).to_json()
        reports = []
        for where in ("a", "b/c"):
            d = tmp_path / where
            d.mkdir(parents=True)
            graph = d / "graph.json"
            graph.write_text(text)
            out = d / "report.json"
            result = runner.invoke(main, [
                "solve", "--graph-file", str(graph.resolve()), "--steps", "2",
                "--c", "0.05", "--p", "0.01", "--trajectories", "3",
                "--output", str(out.resolve()),
            ])
            assert result.exit_code == 0, result.output
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        config = json.loads(reports[0])["config"]
        assert "output" not in config and config["problem_file"] is None
        assert config["graph_file"] == {
            "name": "graph.json",
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }

    @pytest.mark.parametrize("weights", [
        [1.0] * 6,  # ties: several maximum independent sets
        [0.5, 2.0, 1.25, 0.75, 1.5, 1.0],
    ], ids=["unit", "weighted"])
    def test_graph_file_reports_maximum_weight_independent_sets(
            self, runner, tmp_path, weights):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"n": 6, "edges": edges, "weights": weights}))
        result = runner.invoke(main, ["solve", "--graph-file", str(graph),
                                      "--steps", "1"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        # brute force: every independent set of the largest total weight
        independent = [
            (math.fsum(weights[i] for i in nodes), nodes)
            for size in range(7) for nodes in itertools.combinations(range(6), size)
            if not any(i in nodes and j in nodes for i, j in edges)]
        best = max(w for w, _ in independent)
        want = sorted(list(nodes) for w, nodes in independent if w == best)
        sets = report["independent_sets"]
        assert sorted(s["nodes"] for s in sets) == want
        assert all(s["weight"] == best for s in sets)
        # one per optimal bitstring, in its order: spin -1 is a chosen node
        assert [s["nodes"] for s in sets] == [
            [i for i, spin in enumerate(b) if spin == -1]
            for b in report["optimal_bitstrings"]]
        keys = list(report)
        assert keys.index("independent_sets") == keys.index("optimal_bitstrings") + 1

    def test_graph_file_of_zero_weights(self, runner, tmp_path):
        # every independent set weighs 0: the default penalty stays
        # positive, and each set is reported as optimal
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(
            {"n": 3, "edges": [[0, 1], [1, 2]], "weights": [0, 0, 0]}))
        result = runner.invoke(main, ["solve", "--graph-file", str(graph),
                                      "--steps", "1"])
        assert result.exit_code == 0, result.output
        sets = json.loads(result.output)["independent_sets"]
        assert sorted(s["nodes"] for s in sets) == [[], [0], [0, 2], [1], [2]]
        assert all(s["weight"] == 0.0 for s in sets)

    def test_independent_sets_only_for_a_graph_file(self, runner):
        result = runner.invoke(main, ["solve", "--n", "4", "--steps", "1"])
        assert result.exit_code == 0, result.output
        assert "independent_sets" not in json.loads(result.output)

    def test_problem_file(self, runner, tmp_path):
        from dacqo.problem import random_spin_glass

        pf = tmp_path / "problem.json"
        pf.write_text(random_spin_glass(4, 1, "mixed").to_json())
        result = runner.invoke(main, [
            "solve", "--problem-file", str(pf), "--steps", "2",
            "--trajectories", "2",
        ])
        assert result.exit_code == 0, result.output

    def test_missing_config_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "solve", "--config", str(tmp_path / "nope.json"),
        ])
        assert result.exit_code == EXIT_CONFIG

    def test_bad_json_config_exits_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["solve", "--config", str(cfg)])
        assert result.exit_code == EXIT_CONFIG

    def test_size_cap_exits_3(self, runner):
        result = runner.invoke(main, ["solve", "--n", "25", "--steps", "1"])
        assert result.exit_code == EXIT_CAPABILITY

    def test_width_cap_checked_before_synthesis(self, runner, monkeypatch):
        monkeypatch.setattr(dacqo.cli, "synthesize", _must_not_run)
        monkeypatch.setattr(dacqo.cli, "brute_force_ground_state", _must_not_run)
        result = runner.invoke(main, ["solve", "--n", "15", "--steps", "1"])
        assert result.exit_code == EXIT_CAPABILITY, result.output

    def test_width_cap_checked_before_random_couplings(self, runner,
                                                       monkeypatch):
        monkeypatch.setattr(dacqo.cli, "random_spin_glass", _must_not_run)
        result = runner.invoke(main, ["solve", "--n", "15", "--steps", "1"])
        assert result.exit_code == EXIT_CAPABILITY, result.output

    # an n that fits an index but no array: numpy refuses the 7.28 TiB
    # per-node array at once, before anything is allocated
    @pytest.mark.parametrize("flag,text", [
        ("--problem-file", '{"n": 1000000000000, "J": []}'),
        ("--graph-file", '{"n": 1000000000000, "edges": []}'),
    ], ids=["problem", "graph"])
    def test_unallocatable_n_exits_3(self, runner, tmp_path, flag, text):
        f = tmp_path / "input.json"
        f.write_text(text)
        result = runner.invoke(main, ["solve", flag, str(f), "--steps", "1"])
        assert result.exit_code == EXIT_CAPABILITY, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("capability error: out of memory")
        assert result.output.count("\n") == 1

    def test_unknown_flag_exits_2(self, runner):
        result = runner.invoke(main, ["solve", "--frobnicate", "1"])
        assert result.exit_code == 2

    def test_reports_synthesis_plan(self, runner):
        result = runner.invoke(main, [
            "solve", "--n", "4", "--k", "9", "--steps", "1",
            "--trajectories", "2",
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["synthesis_path"] == "homogeneous"
        assert report["block_size"] == 4

    def test_overflowing_perturbation(self, runner):
        # 8 x 8 blocks: at c = 1e160 X^H X overflows and the SVD projects
        # them; at c = 1e308 U + c G itself does, which exits 4
        args = ["solve", "--n", "4", "--k", "3", "--steps", "2",
                "--trajectories", "2", "--c"]
        result = runner.invoke(main, args + ["1e160"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert math.isfinite(report["success_probability"])
        assert 0 < report["gms_fidelity"] < 1
        result = runner.invoke(main, args + ["1e308"])
        assert result.exit_code == EXIT_NUMERICAL, result.output
        assert "overflow" in result.output

    def test_all_zero_problem(self, runner, tmp_path):
        pf = tmp_path / "zero.json"
        pf.write_text(json.dumps({"n": 3, "J": [], "h": [0.0, 0.0, 0.0]}))
        result = runner.invoke(main, [
            "solve", "--problem-file", str(pf), "--steps", "2",
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["success_probability"] == \
            pytest.approx(1.0)

    def test_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 25, "steps": 2, "trajectories": 2}))
        result = runner.invoke(main, [
            "solve", "--config", str(cfg), "--n", "4",
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["n_qubits"] == 4


class TestFidelitySweep:
    def test_writes_csv_and_sidecar(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, [
            "fidelity-sweep", "--sizes", "4", "--c-grid", "0,0.05",
            "--steps", "2", "--trajectories", "4", "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "N,fidelity,success_probability,digital_baseline,threshold_37pct"
        )
        assert len(lines) == 3
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["command"] == "fidelity-sweep"
        assert "version" in meta

    def test_rows_sorted_and_digital_constant(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, [
            "fidelity-sweep", "--sizes", "4", "--c-grid", "0.08,0,0.03",
            "--steps", "2", "--trajectories", "4", "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        fids = [float(r[1]) for r in rows]
        assert fids == sorted(fids)
        assert len({r[3] for r in rows}) == 1

    def test_rerun_byte_identical(self, runner, tmp_path):
        args = [
            "fidelity-sweep", "--sizes", "4", "--c-grid", "0,0.05",
            "--steps", "2", "--trajectories", "4", "--seed", "7",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--output", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--output", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_width_cap_checked_before_any_size_runs(self, runner, tmp_path,
                                                     monkeypatch):
        for name in ("synthesize_digital_baseline", "run",
                     "success_vs_fidelity_sweep"):
            monkeypatch.setattr(dacqo.cli, name, _must_not_run)
        result = runner.invoke(main, [
            "fidelity-sweep", "--sizes", "4,15", "--steps", "1",
            "--output", str(tmp_path / "s.csv"),
        ])
        assert result.exit_code == EXIT_CAPABILITY, result.output

    def test_size_not_multiple_of_block_runs(self, runner, tmp_path):
        # trailing qubits go to pair gates: N=6 runs with one 4-qubit block
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "fidelity-sweep", "--sizes", "6", "--k", "4", "--c-grid", "0",
            "--steps", "1", "--trajectories", "2", "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
        assert [p["block_size"] for p in meta["synthesis_plan"]] == [4]


class TestScaling:
    def test_writes_runtime_and_enhancement_tables(self, runner, tmp_path):
        out = tmp_path / "scaling.csv"
        result = runner.invoke(main, [
            "scaling", "--max-n", "24", "--n-step", "8",
            "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("N,runtime_digital")
        assert [ln.split(",")[0] for ln in lines[1:]] == ["8", "16", "24"]
        meta = json.loads((tmp_path / "scaling.csv.meta.json").read_text())
        assert meta["steps"] == 10
        enh = (tmp_path / "scaling_enhancement.csv").read_text().splitlines()
        assert enh[0] == "instance_class,block_size,enhancement_factor"
        # three instance classes, block sizes 2..6 each
        assert len(enh) == 1 + 3 * 5

    def test_includes_max_n_even_off_grid(self, runner, tmp_path):
        out = tmp_path / "scaling.csv"
        result = runner.invoke(main, [
            "scaling", "--max-n", "20", "--n-step", "8",
            "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[-1].split(",")[0] == "20"


class TestEmitCircuit:
    def test_round_trips_through_loader(self, runner, tmp_path):
        from dacqo.synthesis import Circuit

        out = tmp_path / "circuit.json"
        result = runner.invoke(main, [
            "emit-circuit", "--n", "4", "--steps", "1",
            "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        circuit = Circuit.from_json(out.read_text())
        assert circuit.width == 4
        assert circuit.depth_report().total > 0
        assert "path homogeneous, block size 4" in result.output

    def test_reports_clamped_block_size(self, runner, tmp_path):
        result = runner.invoke(main, [
            "emit-circuit", "--n", "8", "--mode", "mixed", "--k", "9",
            "--steps", "1", "--output", str(tmp_path / "c.json"),
        ])
        assert result.exit_code == 0, result.output
        assert "path inhomogeneous, block size 6" in result.output

    def test_digital_path(self, runner, tmp_path):
        from dacqo.synthesis import Circuit

        out = tmp_path / "circuit.json"
        result = runner.invoke(main, [
            "emit-circuit", "--n", "4", "--steps", "1", "--path", "digital",
            "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        circuit = Circuit.from_json(out.read_text())
        for g in circuit.gates():
            assert g.kind == "1q" or len(g.qubits) == 2

    def test_bad_path_choice_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "emit-circuit", "--n", "4", "--path", "telepathic",
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("path", SYNTHESIS_PATHS)
    def test_one_qubit_exits_2_on_every_path(self, runner, tmp_path, path):
        out = tmp_path / "circuit.json"
        result = runner.invoke(main, [
            "emit-circuit", "--n", "1", "--steps", "1", "--path", path,
            "--output", str(out),
        ])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "at least 2 qubits, got N=1" in result.output
        assert not out.exists()

    def test_one_qubit_solve_names_n(self, runner):
        result = runner.invoke(main, ["solve", "--n", "1", "--steps", "1"])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert "at least 2 qubits, got N=1" in result.output


class TestInvalidInputExits2:
    """Bad input ends with the config exit code, not a traceback."""

    @staticmethod
    def _problem_file(tmp_path, text):
        pf = tmp_path / "problem.json"
        pf.write_text(text)
        return str(pf)

    @pytest.mark.parametrize("args,named", [
        (["solve", "--p", "2", "--n", "2", "--steps", "1"], "p must lie"),
        (["solve", "--n", "1", "--steps", "1"], "N=1"),
        (["fidelity-sweep", "--trajectories", "0", "--steps", "1"],
         "trajectories"),
        (["emit-circuit", "--mode", "mixed", "--path", "homogeneous"],
         "not homogeneous"),
        (["fidelity-sweep", "--k", "0", "--steps", "1"], "'--k'"),
        (["fidelity-sweep", "--sizes", "4.7", "--steps", "1"], "'4.7'"),
        (["solve", "--n", "3", "--c", "nan", "--steps", "1"], "c must be"),
        (["solve", "--n", "3", "--c", "inf", "--steps", "1"], "c must be"),
        (["fidelity-sweep", "--c-grid", "nan", "--steps", "1"], "c must be"),
        (["solve", "--k", "1", "--steps", "1"], "'--k'"),
        (["emit-circuit", "--k", "0", "--steps", "1"], "'--k'"),
        (["scaling", "--max-n", "8", "--steps", "0"], "trotter_steps"),
        (["scaling", "--max-n", "8", "--steps", "-5"], "trotter_steps"),
        (["fidelity-sweep", "--threshold", "0.5", "--steps", "1"],
         "--threshold"),
    ], ids=["solve-p2", "solve-n1", "sweep-trajectories0",
            "emit-mixed-homogeneous", "sweep-k0", "sweep-fractional-size",
            "solve-c-nan", "solve-c-inf", "sweep-c-nan", "solve-k1",
            "emit-k0", "scaling-steps0", "scaling-steps-negative",
            "sweep-threshold"])
    def test_flags(self, runner, tmp_path, args, named):
        out = ["--output", str(tmp_path / "out")]
        result = runner.invoke(main, args + out)
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit)
        assert named in result.output
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["solve", "emit-circuit", "fidelity-sweep"])
    @pytest.mark.parametrize("t", ["nan", "inf", "-1", "0"])
    def test_total_time_must_be_finite_and_positive(self, runner, tmp_path,
                                                    command, t):
        result = runner.invoke(main, [
            command, "--t", t, "--steps", "1",
            "--output", str(tmp_path / "out"),
        ])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit)
        assert "total_time" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args,flag", [
        (["--n-step", "0"], "--n-step"),
        (["--n-step", "-1"], "--n-step"),
        (["--max-n", "7"], "--max-n"),
        (["--max-n", "-8"], "--max-n"),
    ])
    def test_scaling_range(self, runner, tmp_path, args, flag):
        out = tmp_path / "scaling.csv"
        result = runner.invoke(main, ["scaling", *args, "--output", str(out)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit)
        assert flag in result.output
        assert not out.exists()

    @pytest.mark.parametrize("text,named", [
        ('{"n": 2, "J": [[1, 1, 1.0]], "h": [0.0, 0.0]}', "self-coupling"),
        ('{"n": 2, "J": [[0, 1, NaN]], "h": [0.0, 0.0]}', "not finite"),
        ('{"J": []}', '"n"'),
        ('{"n": "2", "J": []}', '"n"'),
        ('{"n": 2, "J": 5}', "malformed problem file"),
        ('[2]', "JSON object"),
        ('{"n": 3, "J": [[0, 1.7, 1.0]]}', "1.7"),
        ('{"n": 3, "J": [[true, 2, 1.0]]}', "True"),
        ('{"n": 2, "J": [[0, 1, 1.0], [0, 1, 2.0]]}', "(0, 1)"),
        ('{"n": 2, "J": [[0, 1, 1.0], [1, 0, 2.0]]}', "(0, 1)"),
        ('{"n": 2, "J": [[0, 1, "2.5"]]}', "'2.5'"),
        ('{"n": 2, "J": [], "h": [true, 0.0]}', "field True"),
        ('{"n": 2, "J": [], "offset": "1"}', "offset '1'"),
        ('{"n": 4, "couplings": [[0, 1, 1.0]], "fields": [1, 1, 1, 1]}',
         "unknown key 'couplings'"),
        ('{"n": 3, "J": [[0, 1, 1.0]], "J": []}', "repeated key 'J'"),
        ('{"n": 2, "J": [[0, 1, 1%s]]}' % ("0" * 400), "coupling is too large"),
        ('{"n": 9223372036854775808, "J": []}', '"n"'),
        # fields are read from "h", not from a default of n zeros
        ('{"n": 9223372036854775807, "J": [], "h": []}', "fields length"),
        # a null is not taken for an absent key
        ('{"n": 2, "J": [], "h": null}', "key 'h' is null"),
        ('{"n": 2, "J": [[0, 1, 1.0]], "offset": null}', "key 'offset' is null"),
    ], ids=["self-coupling", "nan-coupling", "missing-n", "string-n",
            "scalar-J", "not-an-object", "float-node", "boolean-node",
            "repeated-pair", "reversed-pair", "string-coupling",
            "boolean-field", "string-offset", "unknown-key", "repeated-key",
            "huge-integer-coupling", "n-beyond-an-index", "huge-n-with-h",
            "null-h", "null-offset"])
    def test_problem_files(self, runner, tmp_path, text, named):
        pf = self._problem_file(tmp_path, text)
        result = runner.invoke(main, ["solve", "--problem-file", pf])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit)
        assert named in result.output

    @pytest.mark.parametrize("text,named", [
        ('{"edges": [[0, 1]]}', '"n"'),
        ('{"n": 2.5, "edges": []}', '"n"'),
        ('{"n": 3, "edges": [[0, "x"]]}', "'x'"),
        ('{"n": 2, "weights": {"0": 1.0}}', "weight"),
        ('{"n": 2, "edges": [[0, 1.9]]}', "1.9"),
        ('{"n": 2, "weights": [true, 1.0]}', "weight True"),
        ('{"n": 3, "edges": [[0, 1], [1, 0]]}', "(0, 1)"),
        ('{"n": 5, "edge": [[0, 1], [1, 2]]}', "unknown key 'edge'"),
        ('{"n": 3, "edges": [[0, 1]], "edges": []}', "repeated key 'edges'"),
        ('{"n": 9223372036854775808, "edges": []}', '"n"'),
        # weights are read from "weights", not from a default of n ones
        ('{"n": 9223372036854775807, "edges": [], "weights": []}',
         "weights length"),
        ('{"n": 2, "edges": [[0, 1]], "weights": null}', "key 'weights' is null"),
        ('{"n": 2, "edges": [[0, 1, 2]]}', "malformed graph file"),
    ], ids=["missing-n", "float-n", "string-node", "object-weights",
            "float-node", "boolean-weight", "repeated-edge", "unknown-key",
            "repeated-key", "n-beyond-an-index", "huge-n-with-weights",
            "null-weights", "three-entry-edge"])
    def test_graph_files(self, runner, tmp_path, text, named):
        gf = tmp_path / "graph.json"
        gf.write_text(text)
        result = runner.invoke(main, ["solve", "--graph-file", str(gf)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit)
        assert named in result.output

    @pytest.mark.parametrize("command", ["solve", "emit-circuit"])
    def test_problem_and_graph_file_together(self, runner, tmp_path, command):
        from dacqo.problem import random_graph, random_spin_glass

        pf = self._problem_file(tmp_path, random_spin_glass(4, 1).to_json())
        gf = tmp_path / "graph.json"
        gf.write_text(random_graph(6, 0).to_json())
        out = tmp_path / "out"
        result = runner.invoke(main, [
            command, "--problem-file", pf, "--graph-file", str(gf),
            "--steps", "1", "--output", str(out),
        ])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit)
        assert "--problem-file" in result.output
        assert "--graph-file" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command,option,text,named", [
        ("scaling", "--hardware-file", "[]", "JSON object"),
        ("scaling", "--hardware-file", '{"t_M_us": "abc"}', "t_M_us"),
        ("scaling", "--hardware-file", '{"t_M": 500, "coherence": 0.001}',
         "unknown key 't_M'"),
        ("scaling", "--hardware-file", '{"t_M_us": 500, "t_M_us": 600}',
         "repeated key 't_M_us'"),
        ("scaling", "--hardware-file", '{"t_S_us": 1%s}' % ("0" * 400),
         "t_S_us is too large"),
        ("solve", "--config", "[1, 2]", "JSON object"),
        ("solve", "--config", '{"stpes": 3}', "unknown key 'stpes'"),
        ("solve", "--config", '{"k": [4]}', "'k'"),
        ("solve", "--config", '{"c": null}', "'c'"),
        ("solve", "--config", '{"k": 4.5}', "'--k'"),
        ("solve", "--config", '{"k": 1}', "'--k'"),
        ("fidelity-sweep", "--config", '{"threshold": 0.37}',
         "unknown key 'threshold'"),
        ("solve", "--config", '{"steps": 2, "steps": 3}',
         "repeated key 'steps'"),
    ], ids=["hardware-not-an-object", "hardware-string-duration",
            "hardware-unknown-keys", "hardware-repeated-key",
            "hardware-huge-integer",
            "config-not-an-object", "config-unknown-key", "config-list",
            "config-null", "config-fractional-int", "config-k1",
            "config-threshold", "config-repeated-key"])
    def test_hardware_and_config_files(self, runner, tmp_path, command,
                                       option, text, named):
        f = tmp_path / "in.json"
        f.write_text(text)
        result = runner.invoke(main, [
            command, option, str(f), "--output", str(tmp_path / "out"),
        ])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit)
        assert named in result.output

    @pytest.mark.parametrize("args", [
        ["emit-circuit", "--n", "4", "--steps", "1", "--output",
         "{tmp}/missing/c.json"],
        ["solve", "--problem-file", "{tmp}"],
    ], ids=["output-in-missing-dir", "directory-as-problem-file"])
    def test_paths(self, runner, tmp_path, args):
        args = [a.format(tmp=tmp_path) for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_CONFIG, result.output
        assert isinstance(result.exception, SystemExit)


class TestInProcessCommands:
    def test_import_heap_is_frozen_once_per_process(self, runner):
        # a later command must not freeze the garbage of the earlier ones
        counts = []
        for _ in range(10):
            result = runner.invoke(main, [
                "solve", "--n", "4", "--steps", "2", "--trajectories", "2",
            ])
            assert result.exit_code == 0, result.output
            counts.append(gc.get_freeze_count())
        assert counts[-1] <= counts[0]


class TestConfigFile:
    """--config fills in the options that no flag sets."""

    @pytest.mark.parametrize("command,entries,written", [
        ("fidelity-sweep", {"c_grid": "0", "steps": 1, "trajectories": 2,
                            "output": "sweep.csv"},
         ["sweep.csv", "sweep.csv.meta.json"]),
        ("scaling", {"max_n": 8, "output": "table.csv"},
         ["table.csv", "table_enhancement.csv"]),
        ("emit-circuit", {"steps": 1, "output": "c.json"}, ["c.json"]),
    ])
    def test_output_is_honoured(self, runner, tmp_path, command, entries,
                                written):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        with runner.isolated_filesystem(temp_dir=tmp_path) as cwd:
            result = runner.invoke(main, [command, "--config", str(cfg)])
            assert result.exit_code == 0, result.output
            produced = sorted(p.name for p in Path(cwd).iterdir())
        assert set(written) <= set(produced), produced
        assert not any(n.startswith(("fidelity_sweep", "scaling", "circuit"))
                       for n in produced), produced

    @pytest.mark.parametrize("flag_first", [True, False])
    def test_flag_beats_file_in_any_order(self, runner, tmp_path, flag_first):
        from dacqo.synthesis import Circuit

        cfg = tmp_path / "cfg.json"
        out = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 6, "steps": 3, "output": str(out)}))
        flag = ["--steps", "1"]
        config = ["--config", str(cfg)]
        args = flag + config if flag_first else config + flag
        result = runner.invoke(main, ["emit-circuit", *args])
        assert result.exit_code == 0, result.output
        one_step = runner.invoke(main, [
            "emit-circuit", "--n", "6", "--steps", "1",
            "--output", str(tmp_path / "ref.json"),
        ])
        assert one_step.exit_code == 0, one_step.output
        assert out.read_text() == (tmp_path / "ref.json").read_text()
        assert Circuit.from_json(out.read_text()).width == 6

    def test_records_every_parameter(self, runner, tmp_path):
        def names(command):
            return {p.name for p in main.commands[command].params
                    if p.expose_value}

        result = runner.invoke(main, [
            "solve", "--steps", "1", "--trajectories", "2",
        ])
        assert result.exit_code == 0, result.output
        config = json.loads(result.output)["config"]
        # every parameter but the report's own destination
        assert set(config) == names("solve") - {"output"}
        assert config["k"] == 4 and config["seed"] == 0
        runs = {
            "fidelity-sweep": ["--c-grid", "0", "--steps", "1",
                               "--trajectories", "2"],
            "scaling": ["--max-n", "8"],
        }
        for command, args in runs.items():
            out = tmp_path / f"{command}.csv"
            result = runner.invoke(main, [command, *args, "--output", str(out)])
            assert result.exit_code == 0, result.output
            metas = list(tmp_path.glob(f"{command}*.meta.json"))
            assert metas
            for path in metas:
                meta = json.loads(path.read_text())
                assert names(command) <= set(meta), (path.name, meta)

    def test_sweep_sidecar_reports_the_clamped_plan(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, [
            "fidelity-sweep", "--sizes", "8", "--k", "8", "--mode", "mixed",
            "--c-grid", "0", "--steps", "1", "--trajectories", "2",
            "--output", str(out),
        ])
        assert result.exit_code == 0, result.output
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["k"] == 8
        assert meta["synthesis_plan"] == [
            {"N": 8, "synthesis_path": "inhomogeneous", "block_size": 6}
        ]


class TestFit:
    def _write_points(self, path, rows):
        path.write_text(
            "N,required_fidelity\n"
            + "\n".join(f"{n},{f}" for n, f in rows) + "\n"
        )

    def test_happy_path(self, runner, tmp_path):
        import numpy as np

        src = tmp_path / "points.csv"
        self._write_points(
            src,
            [(n, 1.0 - 0.2 * np.exp(-0.1 * n)) for n in (4, 8, 12, 16)],
        )
        result = runner.invoke(main, ["fit", "--input", str(src)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["L"] == 1.0
        assert report["K"] == pytest.approx(0.8, abs=1e-5)
        assert 0.0 < report["prediction_n52"] <= 1.0

    def test_missing_input_exits_2(self, runner):
        assert runner.invoke(main, ["fit"]).exit_code == EXIT_CONFIG

    def test_degenerate_data_exits_4(self, runner, tmp_path):
        src = tmp_path / "points.csv"
        self._write_points(src, [(8, 0.9), (8, 0.92), (8, 0.95)])
        result = runner.invoke(main, ["fit", "--input", str(src)])
        assert result.exit_code == EXIT_NUMERICAL

    @pytest.mark.parametrize("rows,message", [
        ([(4, 0.9), (8, 0.95)], "at least 3 points"),
        ([(4, 0.9), ("nan", 0.95), (12, 0.99)], "finite"),
        ([(4, 0.9), ("inf", 0.95), (12, 0.99)], "finite"),
        ([(4, 0.9), (8, "nan"), (12, 0.99)], "finite"),
        ([(4, 0.9), (8, "inf"), (12, 0.99)], "finite"),
        ([(4, 0.9), (8, 1.5), (12, 0.99)], "(0, 1]"),
    ], ids=["two-rows", "nan-n", "inf-n", "nan-fidelity", "inf-fidelity",
            "fidelity-above-1"])
    def test_invalid_points_exit_2(self, runner, tmp_path, rows, message):
        src = tmp_path / "points.csv"
        self._write_points(src, rows)
        result = runner.invoke(main, ["fit", "--input", str(src)])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert message in result.output

    def test_fit_that_does_not_converge_exits_4(self, runner, tmp_path,
                                                monkeypatch):
        def no_convergence(points):
            raise RuntimeError("Optimal parameters not found")

        monkeypatch.setattr(dacqo.cli, "fit_extrapolation", no_convergence)
        src = tmp_path / "points.csv"
        self._write_points(src, [(4, 0.9), (8, 0.95), (12, 0.99)])
        result = runner.invoke(main, ["fit", "--input", str(src)])
        assert result.exit_code == EXIT_NUMERICAL, result.output
