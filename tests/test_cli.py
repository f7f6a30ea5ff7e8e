"""End-to-end checks of the command-line harness via cli.main."""

import csv
import io
import json
import re

import pytest

from radio_gather import cli, trees
from radio_gather.cli import main
from radio_gather.engine import DuplexMode, Trace
from radio_gather.protocols import make_protocol, step_cap
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


def test_run_rtree_completes_within_step_cap(capsys):
    # ceil(4 n ln n) = 5679 steps stopped this run one rumor short
    rc = run_cli(["run", "--protocol", "rtree", "--tree", "path", "--n", "256",
                  "--seed", "7"])
    assert rc == 0
    assert "complete at step 7157" in capsys.readouterr().out


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


def test_scaling_unb1_ratio_is_against_horizon(capsys):
    rc = run_cli(["scaling", "--protocol", "unb1", "--sizes", "8,16",
                  "--trials", "2"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    for n, mean, _, ratio in rows[1:]:
        horizon = make_protocol("unb1", int(n)).horizon
        assert ratio == f"{float(mean) / horizon:.6f}"


def test_scaling_rtree_ratio_is_against_step_cap(capsys):
    rc = run_cli(["scaling", "--protocol", "rtree", "--sizes", "8,16",
                  "--trials", "2"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    for n, mean, _, ratio in rows[1:]:
        cap = step_cap(make_protocol("rtree", int(n)))
        assert ratio == f"{float(mean) / cap:.6f}"


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


@pytest.mark.parametrize("owner, lemma, broken, count", [
    (trees, "log_gamma_bound", lambda n, gamma: -1.0, 60),
    (trees.Tree, "subtree_sizes", lambda tree: [0] * tree.n, 60),
    (trees, "subtree_above", lambda tree, gamma, h: tree, None),
])
def test_verify_lemmas_counts_violations(monkeypatch, capsys, owner, lemma, broken, count):
    # the first two lemmas break on each of the 20 trees once per gamma,
    # the last wherever a tree has a core of height 1 or more
    monkeypatch.setattr(owner, lemma, broken)
    rc = run_cli(["verify-lemmas", "--trials", "20", "--max-n", "40"])
    found = re.fullmatch(r"checked 20 random trees, (\d+) violations\n", capsys.readouterr().out)
    assert rc == 1
    assert int(found[1]) == count if count else int(found[1]) > 0


def test_scaling_warns_of_runs_that_miss_the_cap(capsys):
    rc = run_cli(["scaling", "--protocol", "rtree", "--sizes", "8,16", "--trials", "2",
                  "--max-steps", "5"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == ("warning: 2/2 runs at n=8 hit the step cap 5\n"
                   "warning: 2/2 runs at n=16 hit the step cap 5\n")
    # an incomplete run counts the steps it ran, the cap
    assert [row[2] for row in csv.reader(io.StringIO(out))][1:] == ["5", "5"]


def test_seed_env_default(monkeypatch, capsys):
    monkeypatch.setenv("RADIO_GATHER_SEED", "7")
    rc = run_cli(["run", "--protocol", "rr-bnd", "--tree", "star", "--n", "4"])
    assert rc == 0
    assert "seed 7" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["constructs", "--seed", "3", "--kind", "family", "--n", "10"],
    ["adversary", "--seed", "3", "--protocol", "mls", "--n", "4"],
])
def test_seed_refused_where_nothing_reads_it(args, capsys):
    # constructs prints deterministic objects and adversary searches a
    # fixed schedule, so neither takes a seed
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


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


NEGATIVE_SEED_RUNS = [
    ["run", "--protocol", "rr-bnd", "--tree", "random", "--n", "8"],
    ["run", "--protocol", "rtree", "--tree", "star", "--n", "8"],
    ["scaling", "--protocol", "rtree", "--sizes", "8", "--trials", "1"],
    ["verify-lemmas", "--trials", "2", "--max-n", "8"],
]


@pytest.mark.parametrize("args", NEGATIVE_SEED_RUNS, ids=lambda a: a[0] + " " + a[2])
def test_negative_seed_rejected(args, capsys):
    assert_input_error(capsys, run_cli(args + ["--seed", "-3"]), "--seed must be at least 0")


@pytest.mark.parametrize("args", NEGATIVE_SEED_RUNS, ids=lambda a: a[0] + " " + a[2])
def test_seed_env_negative(monkeypatch, capsys, args):
    monkeypatch.setenv("RADIO_GATHER_SEED", "-5")
    assert_input_error(capsys, run_cli(args), "RADIO_GATHER_SEED must be a nonnegative integer")


def test_negative_seed_rejected_on_a_tree_file(tmp_path, capsys):
    path = tmp_path / "t.tree"
    save_tree(make_random_tree(8, seed=1), str(path))
    rc = run_cli(["run", "--protocol", "rtree", "--tree", str(path), "--seed", "-1"])
    assert_input_error(capsys, rc, "--seed must be at least 0")


@pytest.mark.parametrize("args", [
    ["constructs", "--kind", "family", "--n", "10", "--k", "2"],
    ["adversary", "--protocol", "mls", "--n", "4"],
])
def test_seed_env_ignored_where_nothing_reads_it(monkeypatch, capsys, args):
    monkeypatch.setenv("RADIO_GATHER_SEED", "abc")
    assert run_cli(args) == 0
    assert capsys.readouterr().err == ""


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


def saved_schedule(tmp_path, n=6):
    path = tmp_path / "sched.json"
    FiringSchedule(n=n, T=n, fires=tuple((t,) for t in range(n))).save(str(path))
    return path


def test_adversary_schedule_refuses_out(tmp_path, capsys):
    # nothing is extracted, so --out would have nothing to write
    path = saved_schedule(tmp_path)
    out = tmp_path / "G"
    rc = run_cli(["adversary", "--schedule", str(path), "--out", str(out)])
    assert_input_error(capsys, rc, "--out")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--protocol", "rr-unb"), ("--duplex", "half"),
                                         ("--protocol", "mls"), ("--duplex", "full")])
def test_adversary_schedule_refuses_extraction_options(tmp_path, capsys, flag, value):
    # they choose what to extract from, and a schedule is read as it is;
    # the defaults, given by name, are refused too
    path = saved_schedule(tmp_path)
    rc = run_cli(["adversary", "--schedule", str(path), flag, value])
    assert_input_error(capsys, rc, f"{flag} only applies to extraction")


def test_adversary_extracts_under_the_duplex_given(tmp_path, capsys):
    out = tmp_path / "sched.json"
    assert run_cli(["adversary", "--n", "6", "--duplex", "half", "--out", str(out)]) == 0
    half = make_protocol("mls", 6, DuplexMode.HALF).horizon
    assert half != make_protocol("mls", 6).horizon
    assert FiringSchedule.load(str(out)).T == half


def test_adversary_schedule_refuses_another_n(tmp_path, capsys):
    path = saved_schedule(tmp_path, n=16)
    rc = run_cli(["adversary", "--schedule", str(path), "--n", "5"])
    assert_input_error(capsys, rc, "--n 5 differs from the schedule's n = 16")


def test_adversary_schedule_accepts_its_own_n(tmp_path, capsys):
    path = saved_schedule(tmp_path)
    rc = run_cli(["adversary", "--schedule", str(path), "--n", "6"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("schedule: n=6 T=6 firings=6\n")


@pytest.mark.parametrize("args", [
    ["adversary", "--protocol", "mls", "--n", "0"],
    ["scaling", "--protocol", "mls", "--sizes", "8,0"],
    ["constructs", "--kind", "disperser", "--n", "0"],
    ["constructs", "--kind", "family", "--n", "10", "--k", "0"],
])
def test_nonpositive_sizes_rejected(args, capsys):
    assert_input_error(capsys, run_cli(args), "must be at least 1")


@pytest.mark.parametrize("args, needle", [
    (["run", "--protocol", "unb1", "--tree", "path", "--n", "5", "--max-steps", "-1"],
     "--max-steps must be at least 0"),
    (["scaling", "--protocol", "unb1", "--sizes", "8", "--max-steps", "-5"],
     "--max-steps must be at least 0"),
    (["scaling", "--protocol", "unb1", "--sizes", "8", "--trials", "0"],
     "--trials must be at least 1"),
    (["scaling", "--protocol", "unb1", "--sizes", "8,x"], "comma-separated integers"),
    (["scaling", "--protocol", "unb1", "--sizes", ","], "--sizes is empty"),
    (["verify-lemmas", "--max-n", "0"], "--max-n must be at least 1"),
    (["verify-lemmas", "--trials", "-1"], "--trials must be at least 1"),
])
def test_bad_counts_rejected(args, needle, capsys):
    assert_input_error(capsys, run_cli(args), needle)


def test_run_max_steps_zero_is_a_cap(capsys):
    args = ["run", "--protocol", "unb1", "--tree", "path", "--n", "5", "--max-steps", "0"]
    assert run_cli(args) == 1
    assert "INCOMPLETE after 0 steps" in capsys.readouterr().out


# file errors at the boundaries: unreadable inputs and unwritable --out


def test_run_tree_path_is_a_directory(tmp_path, capsys):
    rc = run_cli(["run", "--protocol", "mls", "--tree", str(tmp_path)])
    assert_input_error(capsys, rc, "Is a directory")


def test_run_tree_file_not_text(tmp_path, capsys):
    path = tmp_path / "t.tree"
    path.write_bytes(b"\xff\xfe3\n")
    rc = run_cli(["run", "--protocol", "mls", "--tree", str(path)])
    assert_input_error(capsys, rc, "not a text file")


@pytest.mark.parametrize("where, needle", [
    ("missing.json", "No such file"),
    (".", "Is a directory"),
])
def test_adversary_schedule_unreadable(tmp_path, where, needle, capsys):
    rc = run_cli(["adversary", "--schedule", str(tmp_path / where)])
    assert_input_error(capsys, rc, needle)


def test_adversary_schedule_describing_nothing(tmp_path, capsys):
    path = tmp_path / "sched.json"
    path.write_text('{"n": 0, "T": 0, "F": []}\n')
    rc = run_cli(["adversary", "--schedule", str(path)])
    assert_input_error(capsys, rc, "n >= 1")


def refuse(*args, **kwargs):
    raise AssertionError("work started before --out was checked")


@pytest.mark.parametrize("args, work", [
    (["run", "--protocol", "mls", "--tree", "path", "--n", "5"], "engine_run"),
    (["scaling", "--protocol", "mls", "--sizes", "8", "--trials", "1"], "engine_run"),
    (["constructs", "--kind", "family", "--n", "10"], "default_family"),
    (["constructs", "--kind", "disperser", "--n", "10"], "build_disperser"),
    (["adversary", "--protocol", "mls", "--n", "4"], "extract_schedule"),
])
@pytest.mark.parametrize("where, needle", [
    ("no-dir/out", "No such file"),
    (".", "Is a directory"),
    ("file/out", "Not a directory"),
    ("file", "Permission denied"),
    ("new", "Permission denied"),
])
def test_unwritable_out_fails_before_the_work(
    tmp_path, monkeypatch, capsys, args, work, where, needle
):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(cli, work, refuse)
    if needle == "Permission denied":
        # root may write anywhere, so the file system cannot refuse here
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / where
    rc = run_cli(args + ["--out", str(out)])
    assert_input_error(capsys, rc, f"cannot write --out {out}: {needle}")


@pytest.mark.parametrize("args", [
    ["adversary", "--protocol", "rtree", "--n", "4"],
    ["scaling", "--protocol", "unb2", "--sizes", "1", "--trials", "1"],
])
def test_failed_command_leaves_no_out_file(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert not out.exists()


def test_out_replaces_an_existing_file(tmp_path, capsys):
    out = tmp_path / "family.json"
    out.write_text("old\n")
    assert run_cli(["constructs", "--kind", "family", "--n", "10", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 10
