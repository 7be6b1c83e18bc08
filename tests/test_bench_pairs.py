import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
METRICS = [{"name": "steps_per_s", "better": "higher"}, {"name": "setup_s", "better": "lower"}]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(steps, setups):
    return [{"steps_per_s": s, "setup_s": t} for s, t in zip(steps, setups)]


class TestSummarize:
    def test_ten_pairs_with_a_tie(self, bench_pairs):
        parent = runs([100, 102, 98, 101, 99, 100, 103, 97, 100, 101],
                      [0.050, 0.048, 0.052, 0.049, 0.051, 0.050, 0.050, 0.047, 0.053, 0.050])
        # steps: 9 wins and a tie in pair 10; setup (lower is better): 3 wins, a tie in pair 4
        change = runs([110, 111, 108, 112, 109, 110, 113, 107, 110, 101],
                      [0.049, 0.049, 0.051, 0.049, 0.052, 0.051, 0.049, 0.048, 0.054, 0.051])
        summary = bench_pairs.summarize(parent, change, METRICS)
        steps = summary["steps_per_s"]
        assert steps["parent_median"] == 100.0
        assert steps["parent_quartiles"] == [99.25, 101.0]
        assert steps["change_median"] == 110.0
        assert steps["change_quartiles"] == [108.25, 110.75]
        assert (steps["change_wins"], steps["ties"], steps["pairs"]) == (9, 1, 10)
        assert steps["ratio"] == 1.1
        assert steps["claim_holds"]  # 9 of 10, and a gap of 10 over an IQR of 1.75
        setup = summary["setup_s"]
        assert (setup["change_wins"], setup["ties"]) == (3, 1)
        assert setup["parent_median"] == 0.050
        assert not setup["claim_holds"]

    def test_lower_is_better_claim(self, bench_pairs):
        parent = runs([1.0] * 10, [0.050, 0.051, 0.049, 0.050, 0.052,
                                   0.048, 0.050, 0.051, 0.049, 0.050])
        change = runs([1.0] * 10, [0.040, 0.041, 0.039, 0.040, 0.042,
                                   0.038, 0.040, 0.041, 0.039, 0.051])
        summary = bench_pairs.summarize(parent, change, METRICS)
        assert summary["setup_s"]["change_wins"] == 9
        assert summary["setup_s"]["claim_holds"]
        # all ties: no wins for either side, and no claim
        assert (summary["steps_per_s"]["change_wins"], summary["steps_per_s"]["ties"]) == (0, 10)
        assert not summary["steps_per_s"]["claim_holds"]

    def test_wins_without_a_gap_past_the_spread(self, bench_pairs):
        parent = runs([100, 90, 110, 95, 105], [1.0] * 5)
        change = runs([101, 91, 111, 96, 106], [1.0] * 5)
        summary = bench_pairs.summarize(parent, change, METRICS)
        assert summary["steps_per_s"]["change_wins"] == 5
        assert not summary["steps_per_s"]["claim_holds"]  # a gap of 1 inside an IQR of 10

    def test_eight_of_ten_is_not_a_claim(self, bench_pairs):
        parent = runs([100] * 10, [1.0] * 10)
        change = runs([120] * 8 + [90] * 2, [1.0] * 10)
        summary = bench_pairs.summarize(parent, change, METRICS)
        assert summary["steps_per_s"]["change_wins"] == 8
        assert not summary["steps_per_s"]["claim_holds"]

    def test_declared_metrics_and_text(self, bench_pairs):
        declared = bench_pairs.end_to_end_metrics()
        assert [m["name"] for m in declared] == ["steps_per_s", "setup_s", "peak_rss_mb",
                                                 "ok_share"]
        parent = runs([100, 102], [0.05, 0.05])
        text = bench_pairs.format_summary(bench_pairs.summarize(parent, parent, METRICS))
        assert text.splitlines()[1].split()[:2] == ["steps_per_s", "higher"]
        assert text.splitlines()[1].endswith(" 0/2     2 no")

    def test_unequal_pair_counts_refused(self, bench_pairs):
        with pytest.raises(ValueError, match="same non-zero number"):
            bench_pairs.summarize(runs([1], [1]), [], METRICS)


DECLARED = ["quad-sweep", "mlp-minibatch", "logreg-sketch", "logs-summarize"]


class TestWorkloads:
    def test_all_is_every_declared_workload_in_order(self, bench_pairs):
        assert bench_pairs.workloads("all") == DECLARED

    def test_list_keeps_its_order(self, bench_pairs):
        assert bench_pairs.workloads("logs-summarize,quad-sweep") == ["logs-summarize",
                                                                      "quad-sweep"]
        assert bench_pairs.workloads("mlp-minibatch") == ["mlp-minibatch"]

    @pytest.mark.parametrize("text", ["quad", "quad-sweep,", "all,quad-sweep", "",
                                      "quad-sweep,quad-sweep"])
    def test_bad_names_refused(self, bench_pairs, text):
        with pytest.raises(ValueError, match="unknown workloads|named twice"):
            bench_pairs.workloads(text)


class FakeRuns:
    """Stands in for ``unpack``, ``copy_worktree`` and ``run_side``: records the
    unpacks and runs, copies and runs nothing."""

    def __init__(self, bench_pairs, monkeypatch):
        self.calls = []
        monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: self.calls.append("unpack"))
        monkeypatch.setattr(bench_pairs, "copy_worktree", lambda root, dest: None)
        monkeypatch.setattr(bench_pairs, "run_side", self.run_side)

    def run_side(self, tree, workload, args):
        side = tree.name  # the trees are <tmp>/parent and <tmp>/change
        self.calls.append((workload, side))
        # the change is 10% faster on quad-sweep and equal elsewhere
        steps = 110.0 if side == "change" and workload == "quad-sweep" else 100.0
        values = {"steps_per_s": steps, "setup_s": 0.05, "peak_rss_mb": 40.0, "ok_share": 1.0}
        return {"metrics": {name: {"value": value} for name, value in values.items()},
                "correct": True}


class TestMain:
    def test_bad_workload_exits_before_any_run(self, bench_pairs, monkeypatch, capsys):
        fake = FakeRuns(bench_pairs, monkeypatch)
        rc = bench_pairs.main(["--parent", "HEAD", "--workload", "quad-sweep,quad",
                               "--pairs", "2", "--seed", "1"])
        assert rc == 1
        assert fake.calls == []
        assert "unknown workloads ['quad']" in capsys.readouterr().err

    def test_each_workload_same_order_one_summary_and_one_save(self, bench_pairs,
                                                              monkeypatch, capsys, tmp_path):
        fake = FakeRuns(bench_pairs, monkeypatch)
        save = tmp_path / "pairs.json"
        rc = bench_pairs.main(["--parent", "HEAD", "--workload", "quad-sweep,logs-summarize",
                               "--pairs", "3", "--seed", "7", "--seconds", "2",
                               "--save", str(save)])
        assert rc == 0
        order = ["parent", "change", "change", "parent", "parent", "change"]
        assert fake.calls == (["unpack"] + [("quad-sweep", side) for side in order]
                              + [("logs-summarize", side) for side in order])
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("## ")] == [
            "## quad-sweep", "## logs-summarize"]
        saved = json.loads(save.read_text())
        assert saved["workloads"] == ["quad-sweep", "logs-summarize"]
        assert saved["commands"]["logs-summarize"] == (
            "python3 perfbench/run.py --workload logs-summarize --seed 7 --seconds 2"
            " --trace 0")
        assert list(saved["summary"]) == ["quad-sweep", "logs-summarize"]
        quad, logs = (saved["summary"][w]["steps_per_s"] for w in saved["workloads"])
        assert (quad["change_wins"], quad["ratio"]) == (3, 1.1)
        assert (logs["change_wins"], logs["ties"]) == (0, 3)
        assert [(r["workload"], r["pair"], r["side"]) for r in saved["runs"]][:3] == [
            ("quad-sweep", 1, "parent"), ("quad-sweep", 1, "change"), ("quad-sweep", 2, "change")]
        assert len(saved["runs"]) == 12

    def test_all_runs_every_declared_workload(self, bench_pairs, monkeypatch):
        fake = FakeRuns(bench_pairs, monkeypatch)
        assert bench_pairs.main(["--parent", "HEAD", "--workload", "all", "--pairs", "1",
                                 "--seed", "3"]) == 0
        assert [call[0] for call in fake.calls[1::2]] == DECLARED

    def test_change_side_is_a_copy_of_the_working_tree(self, bench_pairs, monkeypatch,
                                                       tmp_path):
        root = tmp_path / "repo"
        root.mkdir()

        def git(*argv):
            subprocess.run(["git", "-C", str(root), *argv], check=True, capture_output=True)

        git("init", "-q")
        files = {".gitignore": "ignored.txt\n", "tracked.txt": "as at start\n",
                 "gone.txt": "deleted from the tree\n", "ignored.txt": "",
                 "new/untracked.txt": "not yet added\n"}
        for name, text in files.items():
            (root / name).parent.mkdir(exist_ok=True)
            (root / name).write_text(text)
        git("add", ".gitignore", "tracked.txt", "gone.txt")
        (root / "gone.txt").unlink()
        monkeypatch.setattr(bench_pairs, "ROOT", root)
        monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: dest.mkdir())
        seen = {}

        def run_side(tree, workload, args):
            if tree.name == "parent":  # runs first in pair 1: an edit the change must not see
                (root / "tracked.txt").write_text("edited during the runs\n")
            else:
                seen["tree"] = tree
                seen["files"] = {str(p.relative_to(tree)): p.read_text()
                                 for p in tree.rglob("*") if p.is_file()}
            values = {"steps_per_s": 1.0, "setup_s": 0.05, "peak_rss_mb": 40.0, "ok_share": 1.0}
            return {"metrics": {name: {"value": value} for name, value in values.items()},
                    "correct": True}

        monkeypatch.setattr(bench_pairs, "run_side", run_side)
        assert bench_pairs.main(["--parent", "HEAD", "--workload", "quad-sweep", "--pairs", "1",
                                 "--seed", "1"]) == 0
        assert seen["tree"] != root and seen["tree"].parent.name.startswith("bench-pairs-")
        assert seen["files"] == {".gitignore": "ignored.txt\n", "tracked.txt": "as at start\n",
                                 "new/untracked.txt": "not yet added\n"}
        assert not seen["tree"].exists()  # removed on exit
