"""End-to-end checks of the command-line harness via cli.main."""

import csv
import io
import json

import pytest

from radio_gather.cli import main
from radio_gather.engine import Trace
from radio_gather.protocols import make_protocol
from radio_gather.trees import make_random_tree, save_tree
from radio_gather.verify import FiringSchedule


def run_cli(args):
    return main(args)


def test_run_path_complete(capsys):
    rc = run_cli(["run", "--protocol", "rr-bnd", "--tree", "path", "--n", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "complete at step" in out
    assert "n 9" in out


def test_run_writes_trace(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    rc = run_cli([
        "run", "--protocol", "unb1", "--tree", "star", "--n", "6",
        "--out", str(out),
    ])
    assert rc == 0
    trace = Trace.from_jsonl(str(out))
    assert trace.protocol == "unb1"
    assert trace.n == 6
    assert not trace.incomplete
    assert trace.steps, "per-step records belong in a dumped trace"


def test_run_incomplete_exit_code(capsys):
    args = ["run", "--protocol", "rr-bnd", "--tree", "path", "--n", "4",
            "--max-steps", "1"]
    assert run_cli(args) == 1
    assert "INCOMPLETE" in capsys.readouterr().out
    assert run_cli(args + ["--allow-incomplete"]) == 0


def test_run_reads_tree_file(tmp_path, capsys):
    path = tmp_path / "t.tree"
    save_tree(make_random_tree(7, seed=2), str(path))
    rc = run_cli(["run", "--protocol", "rr-unb", "--tree", str(path)])
    assert rc == 0
    assert "n 7" in capsys.readouterr().out


def test_run_tree_file_n_mismatch(tmp_path, capsys):
    path = tmp_path / "t.tree"
    save_tree(make_random_tree(7, seed=2), str(path))
    rc = run_cli(["run", "--protocol", "rr-unb", "--tree", str(path), "--n", "8"])
    assert rc == 2
    assert "contradicts" in capsys.readouterr().err


def test_run_family_requires_n(capsys):
    rc = run_cli(["run", "--protocol", "rr-unb", "--tree", "path"])
    assert rc == 2
    assert "--n" in capsys.readouterr().err


def test_run_rejects_nonsense_tree(capsys):
    rc = run_cli(["run", "--protocol", "rr-unb", "--tree", "no/such/file", "--n", "4"])
    assert rc == 2
    assert "neither" in capsys.readouterr().err


def test_scaling_csv_shape(capsys):
    rc = run_cli(["scaling", "--protocol", "mls", "--sizes", "8,16",
                  "--trials", "2"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["n", "mean_steps", "max_steps", "bound_ratio"]
    assert [r[0] for r in rows[1:]] == ["8", "16"]
    for _, mean, mx, ratio in rows[1:]:
        assert mean == f"{float(mean):.2f}"
        assert int(mx) > 0
        # the batch schedule bound is exact, so runs can only undershoot
        assert 0.0 < float(ratio) <= 1.0


def test_scaling_fitted_reference_anchors_first_size(tmp_path):
    out = tmp_path / "s.csv"
    rc = run_cli(["scaling", "--protocol", "unb2", "--sizes", "8,16",
                  "--trials", "2", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][3] == "1.000000"
    assert rows[2][3] != "1.000000"


def test_constructs_family_json(capsys):
    rc = run_cli(["constructs", "--kind", "family", "--n", "20", "--k", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 20 and doc["k"] == 2
    assert len(doc["sets"]) == doc["m"]
    assert all(0 <= v < 20 for s in doc["sets"] for v in s)


def test_constructs_family_is_unb2s_family(capsys):
    # the Kautz-Singleton family unb2 runs with: q = 5, so 25 sets, not
    # the 332 random sets of ceil(8 k^2 ln n)
    rc = run_cli(["constructs", "--kind", "family", "--n", "100", "--k", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == len(doc["sets"]) == 25
    fam = make_protocol("unb2", 100, kappa=3).family
    assert doc["sets"] == [sorted(s) for s in fam.sets]


def test_constructs_disperser_json(tmp_path):
    out = tmp_path / "d.json"
    rc = run_cli(["constructs", "--kind", "disperser", "--n", "25",
                  "--duplex", "half", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 25 and doc["mode"] == "half"
    assert len(doc["sets"]) == doc["m"]
    assert all(0 <= tau < doc["s"] for s in doc["sets"] for tau in s)


def test_adversary_mls_has_no_witness(tmp_path, capsys):
    sched_out = tmp_path / "sched.json"
    rc = run_cli(["adversary", "--protocol", "mls", "--n", "10",
                  "--out", str(sched_out)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no caterpillar witness" in out
    sched = FiringSchedule.load(str(sched_out))
    assert sched.n == 10


def test_adversary_from_schedule_file(tmp_path, capsys):
    sched = FiringSchedule(n=6, T=6, fires=tuple((t,) for t in range(6)))
    path = tmp_path / "sched.json"
    sched.save(str(path))
    rc = run_cli(["adversary", "--schedule", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "witness: victim label" in out


def test_adversary_rejects_adaptive_protocol(capsys):
    rc = run_cli(["adversary", "--protocol", "rr-unb", "--n", "6"])
    assert rc == 2
    assert "not oblivious" in capsys.readouterr().err


def test_adversary_requires_n(capsys):
    rc = run_cli(["adversary", "--protocol", "mls"])
    assert rc == 2
    assert "--n" in capsys.readouterr().err


def test_verify_lemmas_clean(capsys):
    rc = run_cli(["verify-lemmas", "--trials", "20", "--max-n", "40"])
    assert rc == 0
    assert "0 violations" in capsys.readouterr().out


def test_seed_env_default(monkeypatch, capsys):
    monkeypatch.setenv("RADIO_GATHER_SEED", "7")
    rc = run_cli(["run", "--protocol", "rr-bnd", "--tree", "star", "--n", "4"])
    assert rc == 0
    assert "seed 7" in capsys.readouterr().out


def test_unknown_protocol_rejected_at_parse():
    with pytest.raises(SystemExit):
        run_cli(["run", "--protocol", "nope", "--tree", "path", "--n", "4"])


# ---------------------------------------------------------------- bad input
# each ends in one "error: ..." line on stderr and exit code 2


def assert_input_error(capsys, rc, needle):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err


def test_run_rejects_zero_size(capsys):
    rc = run_cli(["run", "--protocol", "rr-unb", "--tree", "random", "--n", "0"])
    assert_input_error(capsys, rc, "n must be positive")


def test_seed_env_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("RADIO_GATHER_SEED", "abc")
    rc = run_cli(["run", "--protocol", "rr-bnd", "--tree", "star", "--n", "4"])
    assert_input_error(capsys, rc, "RADIO_GATHER_SEED")


def test_run_tree_file_non_integer_entry(tmp_path, capsys):
    path = tmp_path / "t.tree"
    path.write_text("3\n0\n0\nx\n0\n1\n2\n")
    rc = run_cli(["run", "--protocol", "rr-unb", "--tree", str(path)])
    assert_input_error(capsys, rc, "integer")


def test_run_tree_file_with_cycle(tmp_path, capsys):
    # node 0 is the root; nodes 1 and 2 are each other's parent
    path = tmp_path / "t.tree"
    path.write_text("3\n0\n2\n1\n0\n1\n2\n")
    rc = run_cli(["run", "--protocol", "rr-unb", "--tree", str(path)])
    assert_input_error(capsys, rc, "cannot reach the root")


def test_adversary_schedule_wrong_label_count(tmp_path, capsys):
    path = tmp_path / "sched.json"
    path.write_text('{"n": 3, "T": 5, "F": [[0], [1]]}\n')
    rc = run_cli(["adversary", "--schedule", str(path)])
    assert_input_error(capsys, rc, "wrong number of labels")


@pytest.mark.parametrize("args", [
    ["adversary", "--protocol", "mls", "--n", "0"],
    ["scaling", "--protocol", "mls", "--sizes", "8,0"],
    ["constructs", "--kind", "disperser", "--n", "0"],
    ["constructs", "--kind", "family", "--n", "10", "--k", "0"],
])
def test_nonpositive_sizes_rejected(args, capsys):
    assert_input_error(capsys, run_cli(args), "must be at least 1")
