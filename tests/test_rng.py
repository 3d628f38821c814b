import ast
import re
from pathlib import Path

import numpy as np
import pytest

from qksim import rng
from qksim.rng import EntryStreams, philox_block, role_tag, stream, stream_key

from oracles import step50_product_loop

SRC = Path(__file__).resolve().parents[1] / "src" / "qksim"


def test_streams_deterministic():
    a = stream(7, "shots", 2, 5).uniform(size=4)
    b = stream(7, "shots", 2, 5).uniform(size=4)
    assert np.array_equal(a, b)


def test_streams_distinct_across_keys():
    base = stream(7, "shots", 2, 5).uniform(size=4)
    for other in (
        stream(8, "shots", 2, 5),
        stream(7, "cross", 2, 5),
        stream(7, "shots", 3, 5),
        stream(7, "shots", 2, 6),
    ):
        assert not np.array_equal(base, other.uniform(size=4))


def test_role_tag_stable():
    # frozen so persisted seeds stay meaningful across versions
    assert role_tag("shots") == role_tag("shots")
    assert role_tag("shots") != role_tag("cross")


def test_entry_streams_wrap_indices_like_stream():
    # seeds at both edges of [0, 2^64); indices wrap modulo 2^64 as in
    # stream(), given as Python ints past int64 or as an index array
    entries = [(0, 0), (5, 9), (100, 3), (2**40, 1), (2**64, 0),
               (2**64 + 5, 2**65 + 9), (-1, 3)]
    i, j = (list(v) for v in zip(*entries))
    p = [0.42, 0.5, 0.001, 0.9, 0.3, 0.7, 0.05]
    for seed in (42, 0, 2**64 - 1):
        for m in (37, 1000):
            got = EntryStreams(seed, "shots", i, j).binomial(m, p)
            want = [stream(seed, "shots", a, b).binomial(m, q) for a, b, q in zip(i, j, p)]
            assert got.tolist() == want
    rows, cols = np.array([3, 7]), np.array([2**63 - 1, 0], dtype=np.uint64)
    got = EntryStreams(5, "cross", rows, cols).binomial(100, [0.4, 0.6])
    assert got.tolist() == [stream(5, "cross", 3, 2**63 - 1).binomial(100, 0.4),
                            stream(5, "cross", 7, 0).binomial(100, 0.6)]


def test_philox_block_matches_numpy_philox():
    # numpy bumps word 0 of the counter before its first block; the same
    # wrap cases as above, given as Python ints and as an index array
    entries = [(0, 0), (5, 9), (100, 3), (2**40, 1), (2**64, 0),
               (2**64 + 5, 2**65 + 9), (-1, 3)]
    mask = (1 << 64) - 1
    for seed in (42, 0, 2**64 - 1):
        key = np.array([seed, role_tag("cross")], dtype=np.uint64)
        words = philox_block(seed, "cross", *zip(*entries))
        assert words.shape == (4, len(entries)) and words.dtype == np.uint64
        for k, (i, j) in enumerate(entries):
            counter = np.array([0, i & mask, j & mask, 0], dtype=np.uint64)
            want = np.random.Philox(counter=counter, key=key).random_raw(4)
            assert np.array_equal(words[:, k], want), (seed, i, j)
    rows, cols = np.indices((3, 4)).reshape(2, -1)
    words = philox_block(5, "shots", rows, cols)
    for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        assert np.array_equal(words[:, k], stream(5, "shots", i, j).bit_generator.random_raw(4))


def test_later_philox_blocks_follow_the_stream():
    # block b holds words 4(b - 1) to 4b - 1, as one number or one per stream
    rows, cols = np.array([0, 1, 2**64 - 1]), np.array([9, 0, 3], dtype=np.uint64)
    raw = [stream(8, "shots", int(i), int(j)).bit_generator.random_raw(12)
           for i, j in zip(rows.tolist(), cols.tolist())]
    for block in (1, 2, 3):
        words = philox_block(8, "shots", rows, cols, block)
        assert np.array_equal(words.T, [r[4 * block - 4 : 4 * block] for r in raw])
    words = philox_block(8, "shots", rows, cols, np.array([3, 1, 2]))
    assert np.array_equal(words.T, [raw[0][8:], raw[1][:4], raw[2][4:8]])


@pytest.mark.parametrize("seed", [-1, 2**64, 2**65 + 3])
def test_seeds_outside_the_key_range_are_errors_not_aliases(seed):
    # seed & (2^64 - 1) would draw seed 2^64 - 1's data for -1 and seed 0's for 2^64
    message = re.escape(f"seed must be in [0, 2**64), got {seed}")
    for build in (
        lambda: stream(seed, "pool"),
        lambda: EntryStreams(seed, "shots", [0], [0]),
        lambda: philox_block(seed, "cross", [0], [0]),
        lambda: stream_key(seed, "pool"),
    ):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize("rates", [np.full(5, 0.3), np.full(12, 0.3), 0.3])
def test_binomial_takes_one_rate_per_entry(rates):
    # unchecked, 5 rates draw entries 0-4 only, 12 index past the family and
    # a scalar draws entry 0 alone
    streams = EntryStreams(3, "shots", np.arange(10), np.zeros(10, dtype=int))
    message = f"10 entries take 10 rates, got {np.size(rates)}"
    with pytest.raises(ValueError, match=message):
        streams.binomial(10, rates)


@pytest.mark.parametrize(
    "i, j, shapes",
    [
        (np.arange(4), [0], "(4,), (1,)"),  # unchecked, it broadcasts in round 1 only
        (np.arange(4), np.arange(5), "(4,), (5,)"),
        (np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int), "(2, 2), (2, 2)"),
        (3, 4, "(), ()"),
    ],
)
def test_entries_are_two_index_lists_of_one_length(i, j, shapes):
    message = re.escape(f"i and j must be 1-D of one length, got {shapes}")
    with pytest.raises(ValueError, match=message):
        EntryStreams(3, "shots", i, j)


def test_seed_must_be_an_integer():
    with pytest.raises(TypeError):
        stream_key(3.0, "pool")
    assert stream_key(np.uint64(2**64 - 1), "pool") == (2**64 - 1, role_tag("pool"))


def test_only_rng_builds_generators():
    # every draw in the package goes through a keyed stream of qksim.rng
    src = Path(__file__).resolve().parents[1] / "src" / "qksim"
    banned = ("np.random.default_rng", "np.random.Generator(", "np.random.Philox(")
    found = [
        f"{path.name}: {call}"
        for path in sorted(src.glob("*.py"))
        if path.name != "rng.py"
        for call in banned
        if call in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_array_path_builds_no_generator():
    # every draw of EntryStreams.binomial is replayed on its Philox blocks:
    # no function it reaches builds a numpy generator or calls stream()
    tree = ast.parse((SRC / "rng.py").read_text(encoding="utf-8"))
    funcs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    reached, todo = set(), ["binomial"]
    while todo:
        name = todo.pop()
        if name in funcs and name not in reached:
            reached.add(name)
            todo += [n.id for n in ast.walk(funcs[name]) if isinstance(n, ast.Name)]
    banned = {"random", "Generator", "Philox", "default_rng", "RandomState", "stream"}
    found = sorted(
        f"{name}: {getattr(node, 'attr', getattr(node, 'id', ''))}"
        for name in reached
        for node in ast.walk(funcs[name])
        if getattr(node, "attr", None) in banned or getattr(node, "id", None) in banned
    )
    assert {"philox_block", "_inversion", "_btpe", "_step52", "_libm"} <= reached
    assert found == []


def test_array_draws_take_transcendentals_from_libm():
    # numpy's SIMD log and exp differ from the C library's in the last bit
    # on some inputs, which can flip a draw; numpy's binomial calls libm
    source = (Path(__file__).resolve().parents[1] / "src" / "qksim" / "rng.py").read_text(
        encoding="utf-8"
    )
    assert [f for f in ("np.log", "np.exp", "np.expm1") if f in source] == []
    assert "math.log1p" in source and "math.exp" in source and "math.log" in source


def step50_arguments(gen, size, reach):
    """Random ``rng._product`` arguments as BTPE makes them at ``m`` trials:
    ``s = r / (1 - r)``, ``a = s (m + 1)``, integral ``d`` in ``[-reach, reach]``
    with ``y = mode + d >= 0``, and ``low`` the mode above it or ``y`` below it."""
    m = int(gen.integers(61, gen.choice([200, 10**6])))
    r = gen.uniform(30.0 / m, 0.5, size)
    s = r / (1.0 - r)
    a = s * float(m + 1)
    mode = np.floor(m * r + r)
    d = np.maximum(gen.integers(-reach, reach + 1, size).astype(float), -mode)
    return a, s, np.where(d > 0.0, mode, mode + d), d


@pytest.mark.filterwarnings("error::RuntimeWarning")  # runs down to y = 0 start at low = 0
@pytest.mark.parametrize("trial", range(40))
def test_step50_fold_equals_the_term_loop(trial):
    gen = np.random.default_rng(trial)
    size = int(gen.choice([0, 1, 2, 7, 129, 300, 4096]))
    a, s, low, d = step50_arguments(gen, size, int(gen.choice([0, 1, 5, 40, 300])))
    d[gen.random(size) < 0.1] = 0.0  # a live entry with no term keeps F = 1
    live = gen.random(size) < gen.choice([0.0, 0.3, 1.0])
    got = rng._product(a, s, low, d, live)
    assert got.tobytes() == step50_product_loop(a, s, low, d, live).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_step50_run_longer_than_a_part_is_folded_whole(sign):
    # a part takes _MIN_LIVE runs at least, however many slots they fill, and
    # leaves none or _MIN_LIVE at least; m = 10**6 and r = 0.1 put the mode at 100000
    size, part = 3 * rng._MIN_LIVE + 5, rng._PART
    a, s = np.full(size, 10**6 + 1) / 9.0, np.full(size, 1.0 / 9.0)
    d = np.random.default_rng(5).integers(-30, 31, size).astype(float)
    long = [0, 17, 2 * rng._MIN_LIVE, size - 1]
    d[long] = sign * (part + 500), -sign * 2 * part, sign * part, sign * 3 * part
    low = np.where(d > 0.0, 1e5, 1e5 + d)
    live = np.ones(size, dtype=bool)
    got = rng._product(a, s, low, d, live)
    assert got.tobytes() == step50_product_loop(a, s, low, d, live).tobytes()
    assert np.all(got[long] != 1.0)
