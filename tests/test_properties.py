"""Property-based checks of the estimator invariants, the CSV loaders, the
exit codes of `simulate` for arbitrary config values, those of every
command for damaged input files and those of every analysis for extreme
but finite numbers."""

import io
import json
import shutil
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from datetime import date, timedelta
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import write_csv
from herdsim import ingest
from herdsim.calibrate import herding_shift
from herdsim.cli import main
from herdsim.errors import ConfigError
from herdsim.simcore import ModelConfig
from herdsim.simcore.config import INT_FIELD_MAX
from herdsim.stats import (
    autocorrelation_abs,
    normalize,
    return_volatility_correlation,
    tail_exponent,
)

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def varied(series):
    return np.std(series) > 1e-6


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.integers(10, 200), elements=finite))
def test_normalize_idempotent(series):
    if not varied(series):
        return
    first = normalize(series)
    second = normalize(first)
    assert np.max(np.abs(second - first)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, st.integers(80, 300), elements=finite))
def test_lcurve_antisymmetric_acurve_symmetric(series):
    if not varied(series) or np.std(np.abs(series)) < 1e-6:
        return
    r = normalize(series)
    lags = 10
    l_pos = return_volatility_correlation(r, lags)
    l_neg = return_volatility_correlation(-r, lags)
    assert np.max(np.abs(l_pos + l_neg)) < 1e-12
    a_pos = autocorrelation_abs(r, lags)
    a_neg = autocorrelation_abs(-r, lags)
    assert np.max(np.abs(a_pos - a_neg)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 10_000),
    st.floats(0.001, 1000.0, allow_nan=False, allow_infinity=False),
)
def test_hill_scale_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    x = rng.standard_t(3, size=5000)
    assert tail_exponent(x, 0.05) == pytest.approx(
        tail_exponent(scale * x, 0.05), abs=1e-10
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_herding_shift_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    r = rng.normal(size=200)
    v = rng.uniform(0.1, 3.0, 200)
    assert herding_shift(-r, v) == pytest.approx(-herding_shift(r, v), abs=1e-12)


# --- numpy fast path of the CSV loaders against the row parser --------------

# 300 examples per loader, or more under a profile that asks for more
# (`--hypothesis-profile deep`, registered in conftest.py).
LOADER_SETTINGS = settings(
    max_examples=max(300, settings().max_examples), deadline=None)

POSITIVE_CELLS = st.floats(1e-3, 1e6).map(repr)
SIGNED_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
)
# Cells numpy may parse, where the fast path has to decide like the row parser.
SUBTLE_CELLS = st.sampled_from([
    "nan", "inf", "-inf", "-0.0", "5e-324", "2.5e-310", "1e400", "+.5", "1e3",
    "\x1c2", "2\x1f", "\x1d-1", "-1.5", "0", "\x0b2", "2\x0c", "\x852",
])
# Cells numpy rejects; only the row parser decides them.
BROKEN_CELLS = st.sampled_from([
    "", "1_0", "#1", "# 2", '"1.5"', '"1,5"', "x", "1e", "0x10",
])
PADDING = st.sampled_from([
    (" ", ""), ("", " "), ("\t", "  "), ("  ", "\t"), ("\x0b", ""),
    ("", "\x0c"), ("\x85", " "),
])
ODD_LABELS = st.sampled_from([
    "", " 3", "3 ", "1_0", "#4", '"2020-01-05"', "x", "2020-13-01", "-2",
    "2020-01-03 ", "20200104", "\x0b5", "5\x85",
])
# Lines that hold no field: blank, or whitespace alone.
EMPTY_LINES = st.sampled_from(["", "", "", " ", "\t", "\x0b", "\x0c", "\x85"])
EOLS = st.sampled_from(["\n", "\r\n", "\r"])
# The first header of each kind is the canonical one.
HEADERS = {
    "panel": [
        ["date", "T1", "T2"], ["date", "T1"], [" Date", "T1 ", "T2", "T3"],
        ["date", "T1", "T1"], ["day", "T1"], ["date"], ['"date"', "T1"],
    ],
    "index": [
        ["date", "close", "volume"], [" DATE", "Close ", "volume"],
        ["date", "close"], ["date", "close", "volume", "x"],
    ],
    "returns": [
        ["day", "R"], ["day", "R", "S001", "S002"], ["day"], ["t", " R "],
    ],
    "sectors": [
        ["ticker", "sector_id"], [" Ticker", "SECTOR_ID "], ["ticker"],
        ["ticker", "sector"], ["ticker", "sector_id", "x"],
    ],
    "search": [
        ["week_start", "ticker", "volume"], ["Week_Start ", " ticker", "volume"],
        ["week_start", "ticker"], ["week", "ticker", "volume"],
    ],
}


def _pick_header(draw, kind):
    header = HEADERS[kind][0]
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.sampled_from(HEADERS[kind]))
    return header


def _labels(draw, count):
    """`count` consecutive day numbers or ISO dates (daily or weekly)."""
    start = draw(st.integers(0, 5))
    if draw(st.booleans()):
        return [str(start + i) for i in range(count)]
    step = draw(st.sampled_from([1, 7]))
    return [(date(2020, 1, 1) + timedelta(days=start + step * i)).isoformat()
            for i in range(count)]


@st.composite
def csv_text(draw, kind):
    """A small CSV file of `kind`. Each kind of mutation is switched on for
    about a quarter of the files, so files with one kind alone are common."""
    def rate():
        return draw(st.sampled_from([0, 0, 0, draw(st.sampled_from([1, 3]))]))

    def sometimes(rate):
        return draw(st.integers(0, 9)) < rate

    header = _pick_header(draw, kind)
    signed, subtle, broken, ragged, spaced = (rate() for _ in range(5))
    order = draw(st.sampled_from(["sorted"] * 3 + ["permuted", "duplicates"]))
    width = len(header) - 1
    if draw(st.integers(0, 9)) == 0:  # every row one cell off the header
        width = max(0, width + draw(st.sampled_from([-1, 1])))
    if kind == "sectors":
        labels = [f"T{i}" for i in range(1, 7)]
    else:
        labels = _labels(draw, 10)
    n_rows = draw(st.integers(0, 6))
    if order == "permuted":
        labels = draw(st.permutations(labels[:n_rows]))
    elif order == "duplicates":
        labels = [labels[i - sometimes(5)] for i in range(n_rows)]
    rows = []
    for label in labels[:n_rows]:
        if sometimes(broken):
            label = draw(ODD_LABELS)
        elif sometimes(spaced):
            before, after = draw(PADDING)
            label = before + label + after
        cells = []
        for _ in range(width):
            if sometimes(broken):
                cell = draw(BROKEN_CELLS)
            elif sometimes(subtle):
                cell = draw(SUBTLE_CELLS)
            else:
                cell = draw(SIGNED_CELLS if sometimes(signed) else POSITIVE_CELLS)
            if sometimes(spaced):
                before, after = draw(PADDING)
                cell = before + cell + after
            cells.append(cell)
        if sometimes(ragged):
            cells = draw(st.sampled_from(
                [cells[:-1], cells + ["0.5"], [], cells[:1]]))
        rows.append(",".join([label] + cells))
        if sometimes(spaced):
            rows.append(draw(EMPTY_LINES))
    eol = draw(EOLS)
    return eol.join([",".join(header)] + rows) + draw(st.sampled_from([eol, ""]))


@st.composite
def search_text(draw):
    """A long-form search.csv: one to three tickers around the 52 weeks a
    series needs, on offset week grids, with a few rows mutated."""
    header = _pick_header(draw, "search")
    tickers = ["AAA", "BBB", "CCC"][: draw(st.integers(1, 3))]
    labels = _labels(draw, 60)
    rows = []
    for ticker in tickers:
        start = draw(st.integers(0, 2))
        for label in labels[start : start + draw(st.integers(51, 58))]:
            rows.append([label, ticker, draw(POSITIVE_CELLS)])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if len(row) != 3:  # ragged or empty already
            continue
        mutation = draw(st.sampled_from([
            "duplicate", "negative", "pad_ticker", "pad_label", "odd_label",
            "subtle", "broken", "ragged", "empty_line", "drop",
        ]))
        if mutation == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif mutation == "negative":
            row[2] = draw(st.sampled_from(["-1.5", "-0.0", "-1e-300"]))
        elif mutation in ("pad_ticker", "pad_label"):
            before, after = draw(PADDING)
            column = 1 if mutation == "pad_ticker" else 0
            row[column] = before + row[column] + after
        elif mutation == "odd_label":
            row[0] = draw(ODD_LABELS)
        elif mutation == "subtle":
            row[2] = draw(SUBTLE_CELLS)
        elif mutation == "broken":
            row[draw(st.integers(0, 2))] = draw(BROKEN_CELLS)
        elif mutation == "ragged":
            rows[i] = draw(st.sampled_from([row[:2], row + ["0.5"], row[:1]]))
        elif mutation == "empty_line":
            rows.insert(i, [draw(EMPTY_LINES)])
        else:
            del rows[i]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    eol = draw(EOLS)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def snapshot(result):
    """What the tests compare: arrays by dtype, shape and bytes, records
    field by field, containers item by item and in order."""
    if isinstance(result, np.ndarray):
        return ("array", result.dtype, result.shape, result.tobytes())
    if isinstance(result, list):
        return [snapshot(item) for item in result]
    if isinstance(result, dict):
        return ("dict", list(result.items()))
    return ("record", type(result),
            {k: snapshot(v) if isinstance(v, np.ndarray) else v
             for k, v in vars(result).items()})


def outcome(load, row_parser_only):
    """What `load()` returns or raises, optionally with the fast path off."""
    with patch.object(ingest, "_scan_numeric_csv",
                      return_value=None) if row_parser_only else nullcontext():
        try:
            return snapshot(load())
        except Exception as exc:  # the type and message must both match
            return ("raised", type(exc), str(exc))


def assert_loader_matches_row_parser(load):
    assert outcome(load, False) == outcome(load, True)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("loaders")
    write_csv(directory / "sectors.csv", ["ticker", "sector_id"],
              [("T1", "1"), ("T2", "1"), ("T3", "2")])
    return directory


@LOADER_SETTINGS
@given(text=csv_text("panel"), forward_fill=st.booleans())
def test_panel_loader_matches_row_parser(csv_dir, text, forward_fill):
    path = csv_dir / "panel.csv"
    path.write_bytes(text.encode())
    assert_loader_matches_row_parser(lambda: ingest.load_returns_panel(
        path, csv_dir / "sectors.csv", forward_fill=forward_fill))


@LOADER_SETTINGS
@given(text=csv_text("index"))
def test_index_loader_matches_row_parser(csv_dir, text):
    path = csv_dir / "index.csv"
    path.write_bytes(text.encode())
    assert_loader_matches_row_parser(lambda: ingest.load_index_series(path))


@LOADER_SETTINGS
@given(text=csv_text("returns"))
def test_returns_loader_matches_row_parser(csv_dir, text):
    path = csv_dir / "returns.csv"
    path.write_bytes(text.encode())
    assert_loader_matches_row_parser(lambda: ingest.load_returns_column(path))


@LOADER_SETTINGS
@given(text=csv_text("sectors"))
def test_sector_map_loader_matches_row_parser(csv_dir, text):
    path = csv_dir / "sector_map.csv"
    path.write_bytes(text.encode())
    assert_loader_matches_row_parser(lambda: ingest.load_sector_map(path))


@LOADER_SETTINGS
@given(text=search_text())
def test_search_loader_matches_row_parser(csv_dir, text):
    path = csv_dir / "search.csv"
    path.write_bytes(text.encode())
    assert_loader_matches_row_parser(lambda: ingest.load_search_series(path))


SMALL_CONFIGS = {
    "a": {"N": 300, "M": 50, "t_max": 120, "warmup": 50, "seed": 1,
          "alpha": 1.2, "delta_R": 2},
    "b": {"N": 300, "M": 50, "t_max": 120, "warmup": 50, "seed": 2, "c": 0.5},
    "c": {"N": 600, "M": 50, "t_max": 120, "warmup": 50, "seed": 3,
          "n": 4, "n_sec": 2, "H_M": 0.3, "H_j": [0.4, 0.5], "P_group": 0.3},
    "d": {"N": 300, "M": 50, "t_max": 120, "warmup": 50, "seed": 4,
          "a": 0.2, "tau": 10},
}
CONFIG_FIELDS = sorted(ModelConfig.__dataclass_fields__)

# plausible numbers (many of them valid) as well as arbitrary JSON values
json_scalars = (
    st.integers(-2, 400)
    | st.floats(0.0, 1.0)
    | st.floats(-1.0, 5.0)
    | st.none()
    | st.booleans()
    | st.integers()
    | st.integers(INT_FIELD_MAX - 1, 2**80)
    | st.integers(-(2**80), -INT_FIELD_MAX + 1)
    | st.floats()
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


def _cheap_if_valid(model, config):
    """False for a config that validates but would run long or large."""
    try:
        parsed = ModelConfig.from_dict(config)
        parsed.validate_for(model)
    except ConfigError:
        return True
    if parsed.t_max > 300:
        return False
    if model != "c":
        return True
    # Model C draws one uniform per M-group slot each day.  At most N
    # I-groups give at most N / (n * (H_j - H_M)) S-groups per sector and
    # that over n * H_M slots; H_M = 0 makes no slots (round_count of inf).
    gap = min(parsed.H_j) - parsed.H_M
    slots = parsed.N / (parsed.n * gap) / (parsed.n * parsed.H_M or np.inf)
    return parsed.n <= 64 and slots <= 1e5


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(sorted(SMALL_CONFIGS)),
    field=st.sampled_from(CONFIG_FIELDS),
    value=json_values,
)
def test_simulate_exit_code_for_any_field_value(fuzz_dir, model, field, value):
    config = dict(SMALL_CONFIGS[model], **{field: value})
    assume(_cheap_if_valid(model, config))
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(config))
    code = main(["simulate", model, "--config", str(path),
                 "--out", str(fuzz_dir / "run")])
    assert code in (0, 1, 2)


# --- exit codes of every subcommand for damaged input files -----------------

# Each command with its input files as {name} placeholders; the damaged file
# is one of these, the others stay intact.
COMMANDS = {
    "lcurve": ["analyze", "lcurve", "--in", "{returns}", "--max-lag", "10"],
    "stats": ["analyze", "stats", "--in", "{returns}", "--max-lag", "10"],
    "spectrum": ["analyze", "spectrum", "--panel", "{panel}",
                 "--sectors", "{sectors}"],
    "asymmetry": ["calibrate", "asymmetry", "--index", "{index}",
                  "--horizon", "50"],
    "comovement": ["calibrate", "comovement", "--panel", "{panel}",
                   "--sectors", "{sectors}"],
    "infoforce": ["calibrate", "infoforce", "--search", "{search}",
                  "--volumes", "{volumes}", "--index", "{weekly_index}"],
    "infoforce_tau": ["calibrate", "infoforce", "--search", "{search}",
                      "--volumes", "{volumes}", "--index", "{weekly_index}",
                      "--tau", "12"],
    "simulate": ["simulate", "a", "--config", "{config}",
                 "--calibration", "{calibration}"],
}
# Digits keep a file parseable and change its numbers; the syntax bytes of
# CSV and JSON change its shape.
EDIT_BYTES = (st.sampled_from(list(b"0123456789"))
              | st.sampled_from(list(b'.-+eE,"[]{}: \n\rnN'))
              | st.integers(0, 255))


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Small valid input files of every command, by placeholder name."""
    d = tmp_path_factory.mktemp("cli_inputs")
    rng = np.random.default_rng(0)
    days = [(date(2015, 1, 1) + timedelta(days=i)).isoformat() for i in range(400)]
    weeks = [(date(2015, 1, 5) + timedelta(weeks=i)).isoformat()
             for i in range(201)]
    returns = rng.normal(0, 50, 2000).round().astype(int)
    close = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, 400)))
    volume = rng.uniform(1e5, 2e5, 400)
    weekly_close = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 201)))
    files = {
        "returns": write_csv(d / "returns.csv", ["day", "R"],
                             enumerate(returns.tolist(), start=1)),
        "panel": write_csv(d / "panel.csv", ["date", "A", "B", "C", "D"],
                           [[day] + [repr(x) for x in row] for day, row in
                            zip(days, rng.normal(0, 0.02, (80, 4)).tolist())]),
        "sectors": write_csv(d / "sectors.csv", ["ticker", "sector_id"],
                             [("A", "1"), ("B", "1"), ("C", "2"), ("D", "2")]),
        "index": write_csv(d / "index.csv", ["date", "close", "volume"],
                           zip(days, map(repr, close.tolist()),
                               map(repr, volume.tolist()))),
        "weekly_index": write_csv(d / "weekly_index.csv",
                                  ["date", "close", "volume"],
                                  [(w, repr(c), "1") for w, c in
                                   zip(weeks, weekly_close.tolist())]),
    }
    t = np.arange(200)
    search, traded = [], []
    for ticker, phase in (("AAA", 0.0), ("BBB", 1.3)):
        g = np.maximum(5 + 2 * np.sin(2 * np.pi * t / 80 + phase)
                       + rng.normal(0, 0.3, 200), 0.0)
        v = rng.uniform(50, 150, 200) + 40 * (g > g.mean())
        search += [(w, ticker, repr(x)) for w, x in zip(weeks[1:], g.tolist())]
        traded += [(w, ticker, repr(x)) for w, x in zip(weeks[1:], v.tolist())]
    header = ["week_start", "ticker", "volume"]
    files["search"] = write_csv(d / "search.csv", header, search)
    files["volumes"] = write_csv(d / "volumes.csv", header, traded)
    files["config"] = d / "config.json"
    files["config"].write_text(json.dumps(SMALL_CONFIGS["a"]))
    assert main(["calibrate", "asymmetry", "--index", str(files["index"]),
                 "--horizon", "50", "--out", str(d / "cal")]) == 0
    files["calibration"] = d / "cal" / "report.json"
    (d / "directory").mkdir()
    for command in COMMANDS:  # intact, every command runs
        assert run_command(d, command, {k: str(p) for k, p in files.items()}) == 0
    return d, files


def run_command(d, command, paths):
    argv = [a.format(**paths) for a in COMMANDS[command]]
    return main(argv + ["--out", str(d / "out" / command)])


def _damaged(data, original: bytes) -> bytes:
    """The file after one to three byte edits, or cut short."""
    if data.draw(st.integers(0, 3)) == 0:
        return original[: data.draw(st.integers(0, len(original)))]
    buf = bytearray(original)
    for _ in range(data.draw(st.integers(1, 3))):
        pos = data.draw(st.integers(0, len(buf)))
        op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = data.draw(EDIT_BYTES)
        if op == "insert":
            buf.insert(pos, byte)
        elif pos < len(buf):
            if op == "replace":
                buf[pos] = byte
            else:
                del buf[pos]
    return bytes(buf)


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_exit_code_for_any_damaged_input_file(cli_inputs, command, data):
    d, files = cli_inputs
    argv = COMMANDS[command]
    name = data.draw(st.sampled_from(
        [a[1:-1] for a in argv if a.startswith("{")]))
    paths = {k: str(p) for k, p in files.items()}
    if data.draw(st.integers(0, 9)) == 0:
        paths[name] = str(d / "directory")
    else:
        damaged = d / f"damaged{files[name].suffix}"
        damaged.write_bytes(_damaged(data, files[name].read_bytes()))
        paths[name] = str(damaged)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = run_command(d, command, paths)
        except SystemExit as exc:  # argparse's way out, which `main` lets pass
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert err.count("\n") == 1, err


# --- exit codes and JSON of every analysis for extreme but finite numbers ---

# The positions of the numeric fields in a row of each input file.
NUMERIC_COLUMNS = {"returns": (1,), "panel": (1, 2, 3, 4), "index": (1, 2),
                   "weekly_index": (1, 2), "search": (2,), "volumes": (2,)}
ANALYSES = sorted(c for c in COMMANDS if c != "simulate")

# 200 examples, or more under a profile that asks for more
# (`--hypothesis-profile deep`, registered in conftest.py).
EXTREME_SETTINGS = settings(
    max_examples=max(200, settings().max_examples), deadline=None)


def _extreme(data, name, original: str) -> str:
    """The file with one numeric column scaled by 1e300 or 1e-300, one of
    its cells set to 1e300, every k-th set to 1e308, or every one set to 0."""
    lines = original.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    column = data.draw(st.sampled_from(NUMERIC_COLUMNS[name]))
    transform = data.draw(st.sampled_from(["scale", "one", "every", "zeros"]))
    if transform == "scale":
        factor = data.draw(st.sampled_from([1e300, 1e-300]))
        for row in rows:
            row[column] = repr(float(row[column]) * factor)
    elif transform == "one":
        rows[data.draw(st.integers(0, len(rows) - 1))][column] = "1e300"
    elif transform == "every":
        k = data.draw(st.integers(1, 10))
        for row in rows[data.draw(st.integers(0, k - 1)) :: k]:
            row[column] = "1e308"
    else:
        for row in rows:
            row[column] = "0"
    return "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n"


def _refuse(constant):
    raise ValueError(f"{constant} in a JSON output")


@EXTREME_SETTINGS
@given(command=st.sampled_from(ANALYSES), data=st.data())
def test_extreme_numbers_exit_cleanly(cli_inputs, command, data):
    d, files = cli_inputs
    name = data.draw(st.sampled_from(
        [a[1:-1] for a in COMMANDS[command] if a[1:-1] in NUMERIC_COLUMNS]))
    paths = {k: str(p) for k, p in files.items()}
    extreme = d / f"extreme{files[name].suffix}"
    extreme.write_text(_extreme(data, name, files[name].read_text()))
    paths[name] = str(extreme)
    out = d / "out" / command
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run_command(d, command, paths)
    assert code in (0, 1, 2)
    if code == 0:
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse)
    else:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert not out.exists()
