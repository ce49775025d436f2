import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from heatfair import (
    DemandError,
    DemandMatrix,
    WeightVector,
    compute_weights,
    load_demands,
    load_weights,
    save_weights,
    synthetic_demands,
    uniform_weights,
)
from heatfair.demand import demands_to_csv_text


def test_weights_follow_peak_shares():
    d = DemandMatrix(values=np.array([[3.0, 0.5], [1.0, 1.0], [2.0, 0.2]]))
    w = compute_weights(d)
    assert w.values.tolist() == [0.75, 0.25]


def test_identical_profiles_share_equally():
    d = DemandMatrix(values=np.tile([[1.0, 1.0, 1.0, 1.0]], (5, 1)))
    assert compute_weights(d).values.tolist() == [0.25] * 4


def test_zero_column_rejected_by_name():
    d = DemandMatrix(
        values=np.array([[1.0, 0.0], [2.0, 0.0]]), labels=("mill", "annex")
    )
    with pytest.raises(DemandError, match="annex.*zero demand"):
        compute_weights(d)


def test_peaks_summing_past_the_float_range_are_refused():
    d = DemandMatrix(values=np.full((2, 3), 1e308))
    with pytest.raises(DemandError, match="sum past the largest float"):
        compute_weights(d)


def test_matrix_invariants_enforced():
    with pytest.raises(DemandError, match="two-dimensional"):
        DemandMatrix(values=np.ones(3))
    with pytest.raises(DemandError, match="negative demand at timestep 1, node 0"):
        DemandMatrix(values=np.array([[1.0, 1.0], [-0.5, 1.0]]))
    with pytest.raises(DemandError, match="non-finite demand at timestep 0, node 1"):
        DemandMatrix(values=np.array([[1.0, np.nan]]))
    with pytest.raises(DemandError, match="3 labels for 2 nodes"):
        DemandMatrix(values=np.ones((2, 2)), labels=("a", "b", "c"))


def test_weight_vector_invariants_enforced():
    with pytest.raises(DemandError, match="sum to 1"):
        WeightVector(values=np.array([0.5, 0.6]))
    with pytest.raises(DemandError, match="strictly positive"):
        WeightVector(values=np.array([1.0, 0.0]))
    assert uniform_weights(4).values.tolist() == [0.25] * 4


def test_two_pass_oracle_agreement():
    rng = np.random.default_rng(77)
    d = DemandMatrix(values=rng.uniform(0.1, 5.0, size=(8760, 10)))
    w = compute_weights(d)
    # independent two-pass route: explicit column maxima, then normalise
    maxima = [max(float(x) for x in d.values[:, col]) for col in range(10)]
    expected = [m / sum(maxima) for m in maxima]
    assert np.allclose(w.values, expected, atol=1e-12)
    assert abs(float(w.values.sum()) - 1.0) <= 1e-12


@given(st.floats(min_value=1e-6, max_value=1e6), st.integers(0, 10_000))
def test_weights_are_scale_invariant(c, seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.1, 4.0, size=(12, 5))
    w1 = compute_weights(DemandMatrix(values=base))
    w2 = compute_weights(DemandMatrix(values=base * c))
    assert np.allclose(w1.values, w2.values, atol=1e-12)


@given(st.integers(0, 10_000))
def test_weights_ignore_timestep_order(seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.1, 4.0, size=(20, 4))
    shuffled = base[rng.permutation(20)]
    w1 = compute_weights(DemandMatrix(values=base))
    w2 = compute_weights(DemandMatrix(values=shuffled))
    assert np.allclose(w1.values, w2.values, atol=0)


@given(st.integers(0, 10_000), st.integers(1, 30), st.integers(1, 12))
def test_weights_always_normalised(seed, timesteps, nodes):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.01, 9.0, size=(timesteps, nodes))
    w = compute_weights(DemandMatrix(values=values))
    assert abs(float(w.values.sum()) - 1.0) <= 1e-12
    assert np.all(w.values > 0)


def test_csv_round_trip(tmp_path):
    d = synthetic_demands(5, timesteps=30, seed=4)
    path = tmp_path / "demo.csv"
    path.write_text(demands_to_csv_text(d))
    loaded = load_demands(str(path))
    assert loaded.timesteps == 30
    assert loaded.nodes == 5
    assert np.array_equal(loaded.values, d.values)


# labels a demand table can carry through its CSV: non-empty, no
# whitespace at either end (the reader strips it), and free to hold the
# characters the CSV rule must quote
CSV_LABELS = st.text(
    st.one_of(st.characters(codec="utf-8", exclude_categories=("Cc", "Cs", "Cf")),
              st.sampled_from(',"\r\n')),
    min_size=1, max_size=12,
).filter(lambda s: s == s.strip())


@given(st.lists(CSV_LABELS, min_size=1, max_size=4), st.lists(st.floats(0.0, 1e308), min_size=1, max_size=12))
@example(["a,b", 'say "hi"', "x\ry", "p\r\nq", "plain"], [1.0, 0.5])
def test_csv_round_trip_keeps_any_label(tmp_path_factory, labels, values):
    rows = max(1, len(values) // len(labels))
    d = DemandMatrix(values=np.resize(values, (rows, len(labels))), labels=labels)
    path = tmp_path_factory.mktemp("csv") / "labelled.csv"
    path.write_bytes(demands_to_csv_text(d).encode("utf-8"))
    loaded = load_demands(str(path))
    assert loaded.labels == d.labels
    assert loaded.values.tobytes() == d.values.tobytes()


def test_csv_labels_lose_surrounding_whitespace(tmp_path):
    path = tmp_path / "spaced.csv"
    path.write_bytes(demands_to_csv_text(DemandMatrix(values=[[1.0, 2.0]], labels=(" a", "b\t"))).encode())
    assert load_demands(str(path)).labels == ("a", "b")


def test_csv_parse_diagnostics(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0,2.0\n1.0\n")
    with pytest.raises(DemandError, match="line 3 has 1 cells, expected 2"):
        load_demands(str(ragged))

    words = tmp_path / "words.csv"
    words.write_text("a,b\n1.0,oops\n")
    with pytest.raises(DemandError, match="line 2, column 'b': 'oops'"):
        load_demands(str(words))

    negative = tmp_path / "negative.csv"
    negative.write_text("a,b\n1.0,-2.0\n")
    with pytest.raises(DemandError, match="negative demand at timestep 0, node 1"):
        load_demands(str(negative))

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DemandError, match="file is empty"):
        load_demands(str(empty))

    headeronly = tmp_path / "headeronly.csv"
    headeronly.write_text("a,b\n")
    with pytest.raises(DemandError, match="no data rows"):
        load_demands(str(headeronly))

    blanklabel = tmp_path / "blank.csv"
    blanklabel.write_text("a,\n1.0,2.0\n")
    with pytest.raises(DemandError, match="empty label"):
        load_demands(str(blanklabel))

    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1.0," + "2" * 200_000 + "\n")
    with pytest.raises(DemandError, match=r"wide.csv: line 2: field larger than field limit \(131072\)$"):
        load_demands(str(wide))

    latin = tmp_path / "latin.csv"
    latin.write_bytes("caf\u00e9,b\n1.0,2.0\n".encode("latin-1"))
    with pytest.raises(DemandError, match="latin.csv: not UTF-8 text"):
        load_demands(str(latin))


def test_csv_byte_order_mark_is_not_part_of_a_label(tmp_path):
    # spreadsheets save UTF-8 CSV with a byte-order mark
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("a,b,c\n1.0,2.0,3.0\n", encoding="utf-8")
    marked.write_text("a,b,c\n1.0,2.0,3.0\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfa,")
    for path in (plain, marked):
        loaded = load_demands(str(path))
        assert loaded.labels == ("a", "b", "c")
        assert loaded.values.tolist() == [[1.0, 2.0, 3.0]]


def test_large_csv_keeps_shape(tmp_path):
    d = synthetic_demands(10, timesteps=8760, seed=1)
    path = tmp_path / "year.csv"
    path.write_text(demands_to_csv_text(d))
    assert load_demands(str(path)).timesteps == 8760


def test_synthetic_demands_properties():
    d = synthetic_demands(6, timesteps=100, seed=3, anchor_scale=10.0)
    assert d.timesteps == 100
    assert d.nodes == 6
    assert np.all(d.values >= 0)
    w = compute_weights(d)
    assert int(np.argmax(w.values)) == 0  # the anchor dominates
    again = synthetic_demands(6, timesteps=100, seed=3, anchor_scale=10.0)
    assert np.array_equal(d.values, again.values)
    with pytest.raises(DemandError, match="anchor_scale"):
        synthetic_demands(4, anchor_scale=0.0)


def test_weights_file_round_trip(tmp_path):
    w = compute_weights(synthetic_demands(7, timesteps=20, seed=12))
    path = tmp_path / "w.json"
    save_weights(w, str(path), labels=[f"n{i}" for i in range(7)])
    loaded = load_weights(str(path))
    assert np.array_equal(loaded.values, w.values)
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    with pytest.raises(DemandError, match="'weights' array"):
        load_weights(str(bad))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"weights": [0.5, true]}', "weight 1 must be a number, got true"),
        ('{"weights": ["0.5", "0.5"]}', 'weight 0 must be a number, got "0.5"'),
        ('{"weights": [0.5, null]}', "weight 1 must be a number, got null"),
        ('{"weights": [[0.5], 0.5]}', r"weight 0 must be a number, got \[0.5\]"),
        ('{"weights": [0.5, 1e999999]}', "every weight must be finite"),
        ('{"weights": [0.5, %d]}' % 10**400, "weight 1 must be a number"),
        ('{"weights": 1.0}', "'weights' array"),
    ],
)
def test_weights_file_accepts_only_json_numbers(tmp_path, text, message):
    path = tmp_path / "w.json"
    path.write_text(text)
    with pytest.raises(DemandError, match=message):
        load_weights(str(path))


def test_weights_file_accepts_integer_weights(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"weights": [1]}')
    assert load_weights(str(path)).values.tolist() == [1.0]
