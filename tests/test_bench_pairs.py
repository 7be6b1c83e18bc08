import importlib.util
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
