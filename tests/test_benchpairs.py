"""``tools/benchpairs.py`` summarises paired benchmark results per metric."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("qksim_benchpairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(sweep_s, rate, failed=0):
    """The last line ``bench/run.py`` prints, with two metrics."""
    return {
        "correct": failed == 0,
        "attempted": 18,
        "failed": failed,
        "metrics": {"sweep_s": {"value": sweep_s, "unit": "s"},
                    "rate": {"value": rate, "unit": "1/s"}},
    }


def test_summary_gives_medians_quartiles_change_and_pairs_won():
    runs = [
        (result(1.0, 10.0), result(0.5, 10.0)),  # a tie in rate is not a win
        (result(2.0, 20.0), result(1.0, 30.0)),
        (result(3.0, 30.0), result(4.0, 40.0, failed=18)),
        (result(4.0, 40.0), result(2.0, 20.0)),
    ]
    lines = load_tool().summarize(runs, {"sweep_s": "lower", "rate": "higher"})
    assert lines == [
        "sweep_s      rev 2.5 [1.25, 3.75]  tree 1.5 [0.625, 3.5]  -40.00%  "
        "tree lower in 3/4 pairs",
        "rate         rev 25 [12.5, 37.5]  tree 25 [12.5, 37.5]  +0.00%  "
        "tree higher in 2/4 pairs",
        "failed operations: rev 0 of 72, tree 18 of 72",
    ]


def test_summary_of_one_pair_uses_its_values_as_quartiles():
    lines = load_tool().summarize([(result(2.0, 1.0), result(1.0, 1.0))], {"sweep_s": "lower"})
    assert lines[0] == (
        "sweep_s      rev 2 [2, 2]  tree 1 [1, 1]  -50.00%  tree lower in 1/1 pairs"
    )
