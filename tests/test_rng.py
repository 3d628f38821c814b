import ast
import re
from pathlib import Path

import numpy as np
import pytest

from qksim.rng import EntryStreams, philox_block, role_tag, stream, stream_key

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
