"""Property tests of the input rules, with strategies built from the rule tables
(MacIver et al., "Hypothesis", JOSS 4(43), 1891, 2019).

Every checked flag and every sweep config value is judged by its rule in
``cli.FLAG_RULES`` or ``cli.CONFIG_RULES`` alone, so any value, of any kind,
either passes or ends in one ``config error:`` line that names it."""
import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qksim import cli

# the kinds of value a flag's text or a config entry may hold: integers,
# fractions, inf and nan, integers past a C long, words and the empty string
SCALARS = st.one_of(
    st.integers(-3, 20),
    st.integers(2**63 - 1, 2**80),
    st.floats(-50, 50).filter(lambda x: x != int(x)),
    st.floats(),
    st.sampled_from(["inf", "-inf", "nan", "", "clip", "exact"]),
    st.text(max_size=6),
)
JSON_VALUES = st.one_of(
    SCALARS, st.none(), st.booleans(), st.lists(SCALARS, max_size=3)
)

FLAGS = [(command, dest) for command, rules in cli.FLAG_RULES.items() for dest in rules]
MAX_TRIALS = 3  # a valid check --trials runs the whole battery that many times
# the noise model names its own field for a rate or layers out of range
NOISE_MODEL = "bad noise model: "


def flag_argv(command: str, dest: str, text: str, missing: str) -> list[str]:
    """``command`` with every file flag at ``missing``, its required flags, and
    the drawn flag last, so it wins over a preset one."""
    files = {
        "sweep": ["--config", missing, "--out", missing],
        "kernel": ["--data", missing, "--out", missing, "--num-qubits=2"],
        "calibrate": [
            "--kernel", missing, "--reference", missing, "--out", missing,
            "--method", "clip",
        ],
        "train": [
            "--kernel", missing, "--data", missing, "--cross", missing,
            "--test-data", missing, "--out", missing,
        ],
        "relabel": ["--data", missing, "--out", missing, "--num-qubits=2"],
        "bound": ["--kernel", missing, "--data", missing],
        "check": [f"--trials={MAX_TRIALS}"],
    }[command]
    return [command, *files, f"--{dest.replace('_', '-')}={text}"]


def names(line: str, name: str) -> bool:
    """Whether ``line`` is a rule's message about ``name``."""
    return line.startswith((f"bad {name} entry: ", f"{name} must be "))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(flag=st.sampled_from(FLAGS), value=SCALARS)
def test_main_judges_each_flag_by_its_rule(flag, value):
    command, dest = flag
    text = value if isinstance(value, str) else repr(value)
    if dest == "trials":
        try:
            trials = cli.FLAG_RULES[command][dest](dest, cli._json_value(text))
        except cli.ConfigError:
            trials = 0
        assume(trials <= MAX_TRIALS)
    with tempfile.TemporaryDirectory() as tmp:
        missing = str(Path(tmp) / "missing.csv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(flag_argv(command, dest, text, missing))
        assert list(Path(tmp).iterdir()) == []
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        (line,) = err.getvalue().splitlines()
        assert line.startswith("config error: ")
        line = line.removeprefix("config error: ")
        assert (
            names(line, dest)
            or (dest in cli.NOISE_FLAGS and line.startswith(NOISE_MODEL))
            or line.startswith(f"cannot read config {missing}")  # sweep, value passed
        ), line


BASE = {
    "dataset": {"kind": "synthetic"},
    "num_qubits": 2,
    "train_sizes": [8],
    "test_size": 8,
    "shots": [10, "inf"],
    "noise_rates": [0.0, 0.05],
    "methods": ["nearest"],
    "seeds": [0, 1],
}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(cli.CONFIG_RULES)), value=JSON_VALUES)
def test_config_loads_or_names_the_key(key, value):
    try:
        cli.SweepConfig.from_dict(dict(BASE, **{key: value}))
    except cli.ConfigError as exc:
        line = str(exc)
        assert names(line, key) or (
            key in ("noise_rates", "layers") and line.startswith(NOISE_MODEL)
        ), line
