"""The JSONL writers and readers against the plain json.dumps / json.loads
reference in ``jsonl_reference``: writers give the same bytes, readers the
same records or the same ``path:line: reason`` on any input."""

import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jsonl_reference as ref
from banditmatch import datasets as ds

CODEC_SETTINGS = settings(max_examples=60, deadline=None, database=None,
                          suppress_health_check=[HealthCheck.too_slow])

KINDS = {
    "labeled": (ds.write_labeled_jsonl, ds.read_labeled_jsonl, ref.read_labeled_jsonl),
    "bandit": (ds.write_bandit_jsonl, ds.read_bandit_jsonl, ref.read_bandit_jsonl),
}


def bandit_log(states, rho, delta) -> ds.BanditLog:
    """The log of these rows, each logging its predicted set."""
    return ds.BanditLog(np.array(states), np.array(rho, dtype=np.float64),
                        np.array(delta, dtype=np.int64))


@st.composite
def record_lists(draw, kind):
    """Raw rows of one state width (1-200): ``(state, actions)`` for a
    corpus, ``(state, actions, rho, delta)`` for a bandit log. Bandit
    ``rho`` is random, with all entries below or above 0.5 for some rows, so
    logged sets run from empty to full (an empty one with feedback 0, as the
    contract requires); corpus actions are any short index lists, so some
    corpora cannot be built and only the plain writer writes them."""
    width = draw(st.integers(1, 200))
    num_classes = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        state = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=width,
                                       max_size=width)))
        if kind == "labeled":
            actions = draw(st.lists(st.integers(-1, 70), min_size=0, max_size=4))
            rows.append((state, np.array(actions, np.int64)))
            continue
        side = draw(st.sampled_from(["low", "high", "mixed"]))
        low, high = {"low": (0.0, 0.5), "high": (0.5, 1.0), "mixed": (0.0, 1.0)}[side]
        rho = np.array(draw(st.lists(
            st.floats(low, high, exclude_min=True, exclude_max=True),
            min_size=num_classes, max_size=num_classes)))
        rows.append((state, np.flatnonzero(rho > 0.5), rho,
                     draw(st.integers(0, int((rho > 0.5).any())))))
    return rows


def built(kind, rows):
    """The corpus or log of raw ``rows``; the constructor refuses invalid ones."""
    if kind == "labeled":
        return ref.corpus_of([ds.LabeledExample(state, actions) for state, actions in rows])
    if not rows:
        return bandit_log(np.zeros((0, 1)), np.zeros((0, 1)), [])
    states, _, rhos, deltas = zip(*rows)
    return bandit_log(np.stack(states), np.stack(rhos), deltas)


def outcome(read, path):
    """Every field of every record, with dtype and shape, or the error raised."""
    try:
        records = read(path)
    except ds.DataError as err:
        return type(err).__name__, str(err)
    return [
        [(np.asarray(v).dtype.str, np.shape(v), np.asarray(v).tobytes())
         for v in vars(rec).values()]
        for rec in records
    ]


def read_as_bytes(read, path):
    """``outcome(read, path)``, asserting that every state read is uint8."""
    got = outcome(read, path)
    assert isinstance(got, tuple) or all(fields[0][0] == "|u1" for fields in got)
    return got


def rewrite_lines(path, transform) -> None:
    """Apply ``transform`` to the JSON object of every line after the header."""
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header] + [transform(json.loads(line)) for line in lines]) + "\n")


@pytest.mark.parametrize("kind", KINDS)
def test_writer_bytes_and_reader_records_match_reference(kind, tmp_path_factory):
    write, read, ref_read = KINDS[kind]
    root = tmp_path_factory.mktemp(f"codec_{kind}")

    @CODEC_SETTINGS
    @given(rows=record_lists(kind))
    def check(rows):
        new, old = root / "new.jsonl", root / "old.jsonl"
        ref.write_rows(old, kind, rows)
        try:
            records = built(kind, rows)
        except ds.DataError:
            records = None  # only the plain writer writes rows no corpus can hold
        if records is not None:
            # float 0/1 states are held as uint8, as the encoder and readers give them
            assert records.states.dtype == np.uint8
            write(new, records)
            assert new.read_bytes() == old.read_bytes()
        assert read_as_bytes(read, old) == outcome(ref_read, old)
        # the same records in other spellings take the whole-line parse
        for transform in (
            lambda obj: json.dumps(obj, separators=(",", ":")),
            lambda obj: json.dumps({**obj, "state": [int(x) for x in obj["state"]]}),
        ):
            rewrite_lines(old, transform)
            assert read_as_bytes(read, old) == outcome(ref_read, old)

    check()


# bytes spliced into a canonical line: JSON punctuation, digits, whitespace,
# a line break, a byte that is not UTF-8, and the neighbours ("/", "!", "-",
# "1") of the bytes around a state digit
FUZZ_BYTES = [bytes([b]) for b in b'01.,-5e ]["{}:\tx\n/!+2'] + [b"\xff"]


def _fuzz_file(kind, path):
    write = KINDS[kind][0]
    state = np.array([0.0, 1.0, 1.0, 0.0])
    if kind == "labeled":
        write(path, ref.corpus_of([ds.LabeledExample(state=state, actions=np.array([0, 2]))] * 2))
    else:
        write(path, bandit_log([state] * 2, [[0.75, 0.125, 0.5625]] * 2, [1, 1]))


@pytest.mark.parametrize("kind", KINDS)
def test_single_byte_edits_read_the_same(kind, tmp_path):
    _, read, ref_read = KINDS[kind]
    path = tmp_path / "fuzz.jsonl"
    _fuzz_file(kind, path)
    original = path.read_bytes()
    start = original.index(b"\n") + 1  # the first record line
    end = original.index(b"\n", start)
    edits = set()
    for pos in range(start, end + 1):
        edits.add(original[:pos] + original[pos + 1:])
        for byte in FUZZ_BYTES:
            edits.add(original[:pos] + byte + original[pos + 1:])
            edits.add(original[:pos] + byte + original[pos:])
    edits.discard(original)
    fast = 0
    for data in sorted(edits):
        path.write_bytes(data)
        got = outcome(read, path)
        assert got == outcome(ref_read, path), data
        fast += isinstance(got, list)
    assert 0 < fast < len(edits)  # some edits still read, most are refused


@pytest.mark.parametrize("kind", KINDS)
def test_blocks_mix_canonical_and_other_lines(kind, tmp_path):
    """More lines than one block, with every tenth line compact: the reader
    takes both paths inside one block and across block boundaries."""
    write, read, ref_read = KINDS[kind]
    rng = np.random.default_rng(0)
    n = 2 * ds._BLOCK + 50
    states = (rng.random((n, 9)) < 0.3).astype(np.float64)
    if kind == "labeled":
        records = ref.corpus_of([ds.LabeledExample(state=s, actions=np.array([1, 3]))
                                 for s in states])
    else:
        rho = rng.uniform(0.01, 0.99, size=(n, 5))
        records = bandit_log(states, rho, (np.arange(n) % 2) * (rho > 0.5).any(axis=1))
    path = tmp_path / "mixed.jsonl"
    write(path, records)
    lines = path.read_text().splitlines()
    for i in range(1, len(lines), 10):
        lines[i] = json.dumps(json.loads(lines[i]), separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    got = read(path)
    assert read_as_bytes(read, path) == outcome(ref_read, path)
    assert np.array_equal(np.stack([r.state for r in got]), states)
    # a record of another width in the last block is reported on its line
    lines[-3] = lines[-3].replace('"state": [', '"state": [0.0, ', 1)
    path.write_text("\n".join(lines) + "\n")
    assert outcome(read, path) == outcome(ref_read, path)
    assert f":{len(lines) - 2}: state has 10 entries" in outcome(read, path)[1]


EDGE_LINES = {
    "no_other_member": '{"state": [0.0, 1.0], }',
    "no_other_member_spaced": '{"state": [0.0, 1.0],   }',
    "trailing_spaces": '{"state": [0.0, 1.0], "actions": [1]}   ',
    "trailing_carriage_return": '{"state": [0.0, 1.0], "actions": [1]}\r',
    "trailing_vertical_tab": '{"state": [0.0, 1.0], "actions": [1]}\x0b',
    "empty_state": '{"state": [], "actions": [1]}',
    "extra_bracket": '{"state": [1.0, 0.0]], "actions": [1]}',
    "nested_state": '{"state": [[1.0], 0.0], "actions": [1]}',
    "second_object": '{"state": [0.0, 1.0], "actions": [1]} {"x": 1}',
    "extra_brace": '{"state": [0.0, 1.0], "actions": [1]}}',
    "last_state_wins": '{"state": [0.0, 1.0], "actions": [1], "state": [1.0, 1.0]}',
    "unicode_rest": '{"state": [0.0, 1.0], "actions": [1], "note": "caf\u00e9"}',
    "huge_int": '{"state": [0.0, 1.0], "actions": [' + "9" * 5000 + "]}",
    "bool_state": '{"state": [true, 0], "actions": [1]}',
}


@pytest.mark.parametrize("line", EDGE_LINES.values(), ids=EDGE_LINES)
def test_edge_lines_read_the_same(line, tmp_path):
    path = tmp_path / "edge.jsonl"
    path.write_text('{"schema_version": "v1", "record": "labeled"}\n' + line + "\n"
                    '{"state": [1.0, 0.0], "actions": [2]}\n', encoding="utf-8")
    assert outcome(ds.read_labeled_jsonl, path) == outcome(ref.read_labeled_jsonl, path)


def test_header_line_never_read_as_a_record(tmp_path):
    # line 1 is the header even when it opens with canonical state text
    path = tmp_path / "header.jsonl"
    path.write_text('{"state": [0.0], "schema_version": "v1", "record": "labeled"}\n'
                    '{"state": [1.0], "actions": [0]}\n')
    got = outcome(ds.read_labeled_jsonl, path)
    assert got == outcome(ref.read_labeled_jsonl, path) and len(got) == 1


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("before", [b"", b"\n", b"  \r\n"], ids=["empty", "blank", "spaces"])
def test_missing_header_refused(kind, before, tmp_path):
    # line 1 is the header whatever it holds: a file that is empty, or that
    # puts a blank line before a valid header and records, is refused there
    write, read, ref_read = KINDS[kind]
    path = tmp_path / "no_header.jsonl"
    _fuzz_file(kind, path)
    path.write_bytes(before + path.read_bytes() if before else b"")
    message = f"{path}:1: not a {kind!r} file (no schema_version header)"
    assert outcome(read, path) == outcome(ref_read, path) == ("DataError", message)


@pytest.mark.parametrize("kind", KINDS)
def test_rest_with_its_own_state_key(kind, tmp_path):
    # duplicate keys: the last one wins, as json.loads reads the whole line
    write, read, ref_read = KINDS[kind]
    path = tmp_path / "dup.jsonl"
    _fuzz_file(kind, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-1] + ', "state": [1.0, 1.0, 1.0, 1.0]}'
    path.write_text("\n".join(lines) + "\n")
    got = read(path)
    assert outcome(read, path) == outcome(ref_read, path)
    assert got[0].state.tolist() == [1.0] * 4


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("entry", [0.5, float("nan"), 2.0])
def test_writers_refuse_non_binary_states(kind, entry, tmp_path):
    # no writer meets such a state: the constructor refuses it, naming the
    # record, and the reader refuses the plain writer's file for that reason
    read = KINDS[kind][1]
    state = np.array([0.0, entry, 1.0])
    rows = [(state, np.array([0]))] if kind == "labeled" else [(state, [], [0.25], 0)]
    with pytest.raises(ds.DataError) as err:
        built(kind, rows)
    assert str(err.value) == "record 1: state entries must be 0 or 1"
    path = tmp_path / "x.jsonl"
    ref.write_rows(path, kind, rows)
    assert outcome(read, path) == ("DataError", f"{path}:2: state entries must be 0 or 1")


def test_writer_refuses_unequal_widths():
    # a log's fields are arrays, so every record's rho has one width: a rho
    # that is not a row of one width per record is refused, and no such log is built
    log = bandit_log([[0.0, 1.0, 1.0]], [[0.75, 0.25]], [1])
    with pytest.raises(ds.DataError, match=r"log fields of unequal shapes: states \(1, 3\), "
                                           r"rho \(2,\), delta \(1,\)"):
        replace(log, rho=log.rho[0])


def test_negative_zero_written_as_zero(tmp_path):
    path = tmp_path / "x.jsonl"
    ds.write_labeled_jsonl(path, ref.corpus_of([ds.LabeledExample(state=np.array([-0.0, 1.0]),
                                                                  actions=np.array([0]))]))
    assert path.read_text().splitlines()[1] == '{"state": [0.0, 1.0], "actions": [0]}'
    (ex,) = ds.read_labeled_jsonl(path)
    assert not np.signbit(ex.state).any()


@pytest.mark.parametrize("kind", KINDS)
def test_float_states_held_as_uint8(kind, tmp_path):
    # a corpus or log built from float64 0/1 states keeps them as uint8, and
    # writes the bytes of one built from the same states as uint8
    write = KINDS[kind][0]
    states = np.array([[0.0, 1.0, -0.0], [1.0, 1.0, 0.0]])

    def build(s):
        if kind == "labeled":
            return ds.Corpus(s, np.array([0, 1, 3]), np.array([2, 0, 1]))
        return bandit_log(s, [[0.75, 0.25], [0.25, 0.125]], [1, 0])

    floats, bits = build(states), build(states.astype(np.uint8))
    assert floats.states.dtype == np.uint8
    write(tmp_path / "floats.jsonl", floats)
    write(tmp_path / "bits.jsonl", bits)
    assert (tmp_path / "floats.jsonl").read_bytes() == (tmp_path / "bits.jsonl").read_bytes()


# -- blocks: the readers fill arrays a block of lines at a time ---------------------

B = ds._BLOCK


def arrays_of(got) -> list:
    """Every array a reader returns, as (dtype, shape, bytes); the
    reference's list of examples counts as the corpus it lists."""
    if isinstance(got, list):
        got = ref.corpus_of(got)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in vars(got).values()]


def block_records(kind, n: int):
    """``n`` writer records of 9 state entries (and 5 classes), all distinct."""
    rng = np.random.default_rng(n)
    states = (rng.random((n, 9)) < 0.4).astype(np.uint8)
    if kind == "labeled":
        return ref.corpus_of([ds.LabeledExample(s, np.union1d(np.flatnonzero(rng.random(5) < 0.5),
                                                              [k % 5]))
                              for k, s in enumerate(states)])
    rho = rng.uniform(0.01, 0.99, size=(n, 5))
    return bandit_log(states, rho, rng.integers(0, 2, n) * (rho > 0.5).any(axis=1))


def edited_lines(lines: list[str], edit: str) -> list[str]:
    """The lines with a blank line, or a compact line, on each side of the
    first block edge: between file lines B and B + 1, and between the Bth and
    (B + 1)th record."""
    lines = list(lines)
    if edit == "compact":
        for i in (B, B + 1):  # records B and B + 1 (line 1 is the header)
            if i < len(lines):
                lines[i] = json.dumps(json.loads(lines[i]), separators=(",", ":"))
    elif edit == "blank":
        for i in (B + 2, B + 1, B - 1):  # from the end, so each index still holds
            if i < len(lines):
                lines.insert(i, "")
    return lines


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1],
                         ids=["1", "B-1", "B", "B+1", "2B+1"])
@pytest.mark.parametrize("edit", ["none", "blank", "compact"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["newline", "no_newline"])
def test_block_edges_read_as_reference(kind, n, edit, final_newline, tmp_path):
    write, read, ref_read = KINDS[kind]
    path = tmp_path / "edges.jsonl"
    write(path, block_records(kind, n))
    lines = edited_lines(path.read_text().splitlines(), edit)
    end = "\n" if final_newline else ""
    path.write_text("\n".join(lines) + end)
    assert arrays_of(read(path)) == arrays_of(ref_read(path))
    assert read_as_bytes(read, path) == outcome(ref_read, path)
    # one broken line, in the first block, on either side of its edge, or last
    record_lines = [i for i, line in enumerate(lines) if i and line]
    for at in sorted({record_lines[0], *record_lines[B - 1 : B + 1], record_lines[-1]}):
        for broken in (lines[at][:-1], lines[at].replace("0.0", "0.5", 1)):
            path.write_text("\n".join(lines[:at] + [broken] + lines[at + 1:]) + end)
            got = outcome(read, path)
            assert got == outcome(ref_read, path)
            assert got[1].startswith(f"{path}:{at + 1}: ")


def test_labeled_block_faults_and_order(tmp_path):
    # a file of one block reports the first fault as a whole-file check does:
    # a field of the wrong type on a later line before a value fault earlier
    path = tmp_path / "faults.jsonl"
    ds.write_labeled_jsonl(path, block_records("labeled", B))
    lines = path.read_text().splitlines()
    lines[3] = lines[3].replace('"actions": [', '"actions": [-1, ', 1)
    lines[9] = lines[9].replace('"actions": [', '"actions": ["x", ', 1)
    path.write_text("\n".join(lines) + "\n")
    assert outcome(ds.read_labeled_jsonl, path) == outcome(ref.read_labeled_jsonl, path)
    assert ':10: actions entry "x" is not an integer' in outcome(ds.read_labeled_jsonl, path)[1]
    # with the field fault moved into the next block, the first block's
    # fault comes first; a whole-file check still reports the field fault
    lines = lines + lines[1:3]
    lines[B + 1] = lines[9]
    lines[9] = lines[10]
    path.write_text("\n".join(lines) + "\n")
    assert ":4: actions [-1, " in outcome(ds.read_labeled_jsonl, path)[1]
    assert f":{B + 2}: actions entry " in outcome(ref.read_labeled_jsonl, path)[1]


def test_log_delta_refused_with_the_field_types(tmp_path):
    # delta is checked as its line is parsed, so a bad delta on line 3 comes
    # before a state entry fault on line 2 of the same block
    path = tmp_path / "x.jsonl"
    ref.write_rows(path, "bandit", [([0.5, 1.0], [0], [0.75], 1), ([0.0, 1.0], [0], [0.75], 2)])
    assert outcome(ds.read_bandit_jsonl, path) == (
        "DataError", f"{path}:3: delta must be 0 or 1, got 2")
    assert outcome(ref.read_bandit_jsonl, path) == outcome(ds.read_bandit_jsonl, path)


def test_reading_a_log_holds_its_arrays_and_one_block(tmp_path):
    # the reader fills arrays sized from the newline count: beyond them it
    # holds one block of lines and its parsed rows, never a record per line
    # or a second copy of the rows (default-world widths, 12 blocks and more)
    rng = np.random.default_rng(29)
    n, d, c = 12 * B + 17, 167, 61
    rho = rng.uniform(0.01, 0.99, size=(n, c))
    path = tmp_path / "big.jsonl"
    ds.write_bandit_jsonl(path, bandit_log((rng.random((n, d)) < 0.2).astype(np.uint8), rho,
                                           rng.integers(0, 2, n) * (rho > 0.5).any(axis=1)))
    tracemalloc.start()
    try:
        log = ds.read_bandit_jsonl(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in vars(log).values())
    block = B * path.stat().st_size / n
    assert len(log) == n and arrays == n * (d + 8 * c + 8)
    assert peak <= 1.5 * arrays + block, (peak / arrays, block / arrays)


# -- no writer meets what the readers refuse: the constructor refuses it --------

def _faulty_log(fault: str) -> tuple[tuple, str]:
    """The fields of a three-record log whose second record breaks one rule,
    and the reason."""
    states = np.array([[0, 1, 1]] * 3, np.uint8)
    rho = np.array([[0.75, 0.25]] * 3)
    delta = np.array([1, 0, 1])
    reason = "rho must lie strictly inside (0, 1)"
    if fault == "rho_nan":
        rho[1, 1] = np.nan
    elif fault == "rho_zero":
        rho[1, 1] = 0.0
    elif fault == "rho_one":
        rho[1, 1] = 1.0
    elif fault == "delta":
        delta[1] = 2
        reason = "delta must be 0 or 1, got 2"
    elif fault == "empty_positive":
        rho[1] = 0.25
        delta[1] = 1
        reason = "a positive record must log a non-empty action set"
    elif fault == "state":
        states[1, 1] = 2
        reason = "state entries must be 0 or 1"
    return (states, rho, delta), reason


@pytest.mark.parametrize("fault", ["rho_nan", "rho_zero", "rho_one", "delta", "empty_positive",
                                   "state"])
def test_log_writer_refuses_what_the_reader_refuses(fault, tmp_path):
    fields, reason = _faulty_log(fault)
    with pytest.raises(ds.DataError) as err:
        ds.BanditLog(*fields)
    assert str(err.value) == f"record 2: {reason}"
    # the plain writer writes the rows, and the reader refuses them for the same reason
    path = tmp_path / "x.jsonl"
    ref.write_rows(path, "bandit", raw_rows("bandit", fields))
    assert outcome(ds.read_bandit_jsonl, path) == ("DataError", f"{path}:3: {reason}")


@pytest.mark.parametrize("listed", [[0, 1], [], [0, 7]], ids=["superset", "empty", "out_of_range"])
def test_reader_refuses_actions_other_than_the_predicted_set(listed, tmp_path):
    # a log holds no logged set, only rho, so a line whose actions are not
    # {c : rho[c] > 0.5} (an out-of-range index included) is a fault of the file alone
    rows = raw_rows("bandit", _faulty_log("none")[0])
    rows[1] = (rows[1][0], listed, *rows[1][2:])
    path = tmp_path / "x.jsonl"
    ref.write_rows(path, "bandit", rows)
    assert outcome(ds.read_bandit_jsonl, path) == (
        "DataError", f"{path}:3: actions {listed} differ from {{c : rho[c] > 0.5}} = [0]")
    assert outcome(ref.read_bandit_jsonl, path) == outcome(ds.read_bandit_jsonl, path)


def test_log_writer_refuses_fields_of_unequal_lengths():
    states, rho, delta = _faulty_log("none")[0]
    with pytest.raises(ds.DataError, match=r"log fields of unequal shapes: .* delta \(2,\)"):
        ds.BanditLog(states, rho, delta[:2])


# -- one contract: what a constructor accepts, a reader accepts -----------------

CORPUS_STATES = [2, 255]
LOG_RHO = [0.0, 1.0, float("nan"), -0.5, 1.5, 0.5, 0.25, 0.75]


@st.composite
def contract_arrays(draw, kind):
    """The arrays of a valid corpus or log of 1-5 rows, with 0-3 entries
    then set to arbitrary values: a state entry, a row's action list, a
    ``rho`` entry, or a ``delta`` (-1, 2, or 1 on a row that may log an
    empty set)."""
    n, width = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    states = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=width,
                                             max_size=width), min_size=n, max_size=n)),
                      dtype=np.uint8)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, width - 1))
    if kind == "labeled":
        lists = draw(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)
                              .map(sorted), min_size=n, max_size=n))
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                states[draw(cell)] = draw(st.sampled_from(CORPUS_STATES))
            else:
                lists[draw(st.integers(0, n - 1))] = draw(st.lists(st.integers(-3, 9), max_size=4))
        sizes = [len(a) for a in lists]
        return (states, np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
                np.array([a for row in lists for a in row], dtype=np.int64))
    classes = draw(st.integers(1, 5))
    # each row's rho below 0.5, above it or either, so sets run from empty to full
    sides = st.sampled_from([(0.01, 0.49), (0.51, 0.99), (0.01, 0.99)])
    rho = np.array([draw(st.lists(st.floats(*draw(sides)), min_size=classes, max_size=classes))
                    for _ in range(n)])
    delta = np.array([draw(st.integers(0, int((row > 0.5).any()))) for row in rho],
                     dtype=np.int64)
    cls = st.tuples(st.integers(0, n - 1), st.integers(0, classes - 1))
    for _ in range(draw(st.integers(0, 3))):
        field = draw(st.sampled_from(["state", "rho", "delta", "positive"]))
        if field == "state":
            states[draw(cell)] = draw(st.sampled_from(CORPUS_STATES))
        elif field == "rho":
            rho[draw(cls)] = draw(st.sampled_from(LOG_RHO))
        else:
            delta[draw(st.integers(0, n - 1))] = 1 if field == "positive" else draw(
                st.sampled_from([-1, 2]))
    return states, rho, delta


def raw_rows(kind, arrays):
    """The rows of a corpus's or log's arrays, for the plain writer; a log's
    rows list the sets ``{c : rho[c] > 0.5}``."""
    if kind == "labeled":
        states, offsets, indices = arrays
        return [(s, indices[a:b]) for s, a, b in zip(states, offsets, offsets[1:])]
    states, rho, delta = arrays
    return list(zip(states, map(np.flatnonzero, rho > 0.5), rho, delta))


@pytest.mark.parametrize("kind", KINDS)
def test_constructor_accepts_what_the_reader_accepts(kind, tmp_path_factory):
    # the constructor accepts exactly the arrays whose rows, written by the
    # plain writer, the reader accepts, and refuses the others for the same
    # reason on the same row (record i is line i + 1); what it accepts reads
    # back equal in dtype, shape and bits
    write, read, _ = KINDS[kind]
    build = ds.Corpus if kind == "labeled" else ds.BanditLog
    root = tmp_path_factory.mktemp(f"contract_{kind}")

    @settings(CODEC_SETTINGS, max_examples=200)
    @given(arrays=contract_arrays(kind))
    def check(arrays):
        path = root / "rows.jsonl"
        ref.write_rows(path, kind, raw_rows(kind, arrays))
        try:
            built = build(*arrays)
        except ds.DataError as err:
            record, reason = re.fullmatch(r"record (\d+): (.*)", str(err)).groups()
            assert outcome(read, path) == ("DataError", f"{path}:{int(record) + 1}: {reason}")
            return
        assert isinstance(outcome(read, path), list)
        write(path, built)
        assert arrays_of(read(path)) == arrays_of(built)

    check()
