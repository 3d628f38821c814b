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

from qksim import calibrate, cli, kernels, qsim

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


# a valid value for every rule of CONFIG_RULES, each drawn on its own (a list
# holds no two equal entries); the noise fields pass their own rules but may
# still make a bad noise model
VALID = {
    "num_qubits": st.integers(1, qsim.MAX_QUBITS),
    "train_sizes": st.lists(st.integers(1, 50), min_size=1, max_size=3, unique=True),
    "test_size": st.integers(1, 50),
    "shots": st.lists(
        st.one_of(st.integers(1, 10**6), st.just("inf")), max_size=3, unique=True
    ),
    "noise_rates": st.lists(st.floats(-0.5, 1.5), max_size=3, unique=True),
    "methods": st.lists(st.sampled_from(calibrate.METHODS + (calibrate.NONE,)),
                        max_size=3, unique=True),
    "seeds": st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3, unique=True),
    "layers": st.integers(-2, 12),
    "ridge": st.floats(0.0, 10.0),
    "nearest_delta": st.floats(0.0, 1.0),
    "relabel_gamma_scale": st.floats(0.01, 10.0),
    "bound_delta": st.floats(0.01, 0.99),
    "cross_shots": st.sampled_from(["pipeline", "exact"]),
    "output": st.one_of(st.none(), st.text(max_size=5)),
}
NOISE_FIELDS = ("noise_rates", "layers", "mixing")


def load_error(raw: dict) -> str | None:
    try:
        cli.SweepConfig.from_dict(raw)
    except cli.ConfigError as exc:
        return str(exc)
    return None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    others=st.fixed_dictionaries(
        {"dataset": st.just({"kind": "synthetic"})},
        optional={**VALID, "mixing": st.sampled_from(kernels.MIXINGS + ("bogus",))},
    ),
    key=st.sampled_from(sorted(cli.CONFIG_RULES)),
    value=JSON_VALUES,
)
def test_each_rule_judges_its_value_whatever_the_others_hold(others, key, value):
    raw = dict(BASE, **others)
    raw[key] = value
    try:
        verdict, rule_error = cli.CONFIG_RULES[key](key, value), None
    except cli.ConfigError as exc:
        verdict, rule_error = None, str(exc)
    if rule_error is not None:  # the key's rule alone rejects the value
        assert load_error(raw) == rule_error
        return
    # else the noise-model rule is the only judge left, and it reads the noise
    # fields only: the same fields on the base config get the same verdict
    noise = {name: raw[name] for name in NOISE_FIELDS if name in raw}
    error = load_error(raw)
    assert error == load_error(dict(BASE, **noise))
    assert error is None or error.startswith(NOISE_MODEL), error
    if error is None:
        assert getattr(cli.SweepConfig.from_dict(raw), key) == verdict
