"""Trajectory and summary serialization: byte stability, NaN handling."""

import json
import math
import string
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bpac.core import RouterConfig, ThresholdGrid
from bpac.records import write_summary_json, write_table, write_trajectory, write_wealth_snapshots
from bpac.simulation import run_replication, uniform_linear
from reference import RecordFormatError, read_trajectory


@pytest.fixture(scope="module")
def traj():
    return run_replication("bpac", RouterConfig(), uniform_linear(), 120,
                           seed=17, emit_wealth_every=60)


class TestTrajectoryFiles:
    def test_round_trip_columns(self, traj, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        back = read_trajectory(path)
        assert back.config_hash == traj.config_hash
        assert back.method == traj.method
        for name in ("t", "xi"):
            np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))
        for name in ("uncertainty", "rho", "pi", "u_hat", "ecp", "tp", "er",
                     "latent_loss", "realized_loss", "deploy_risk"):
            np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))

    def test_nan_columns_survive(self, traj, tmp_path):
        # iid stream leaves weighted_risk NaN throughout
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        back = read_trajectory(path)
        assert np.all(np.isnan(back.weighted_risk))

    def test_rewrite_is_byte_identical(self, traj, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_trajectory(first, traj)
        write_trajectory(second, read_trajectory(first))
        assert first.read_bytes() == second.read_bytes()

    def test_header_line_carries_config_hash(self, traj, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        assert path.read_text().splitlines()[0] == f"# config_hash={traj.config_hash}"

    def test_missing_hash_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,uncertainty\n1,0.5\n")
        with pytest.raises(RecordFormatError, match="config_hash"):
            read_trajectory(path)

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# config_hash=abc\nt,foo\n1,2\n")
        with pytest.raises(RecordFormatError, match="columns"):
            read_trajectory(path)


class TestWealthSnapshots:
    def test_long_format_rows(self, traj, tmp_path):
        path = tmp_path / "wealth.csv"
        grid = ThresholdGrid.default().values
        write_wealth_snapshots(path, traj, grid)
        lines = path.read_text().splitlines()
        assert lines[1] == "t,u,log_wealth"
        # two snapshots (t=60, 120) over the 1001-point lattice
        assert len(lines) == 2 + 2 * 1001
        assert lines[2].startswith("60,0.0,")


def float_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def from_bits(bits: list[int]) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                  2.225073858507201e-308, 1.0, 0.1, 1e16, 1e-5]
NAN_BITS = st.builds(lambda negative, payload: negative << 63 | 0x7FF << 52 | payload,
                     st.booleans(), st.integers(1, 2 ** 52 - 1))
FLOAT_BITS = st.one_of(st.floats().map(float_bits),
                       st.sampled_from(SPECIAL_FLOATS).map(float_bits), NAN_BITS)
TEXT = st.text(string.ascii_letters + string.digits + " _.-", max_size=8)


@st.composite
def columns(draw):
    """Equal-length float64, int64 and string columns, possibly empty."""
    n = draw(st.integers(0, 30))
    names = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    table = {}
    for name in names:
        kind = draw(st.sampled_from(["float", "repeats", "int", "str"]))
        if kind == "float":
            table[name] = from_bits(draw(st.lists(FLOAT_BITS, min_size=n, max_size=n)))
        elif kind == "repeats":
            pool = draw(st.lists(FLOAT_BITS, min_size=1, max_size=3))
            picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            table[name] = from_bits(picks)
        elif kind == "int":
            table[name] = np.array(draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                                 min_size=n, max_size=n)), dtype=np.int64)
        else:
            table[name] = draw(st.lists(TEXT, min_size=n, max_size=n))
    return table


def reference_table(columns, comment) -> bytes:
    """``str`` of every cell's Python scalar, one cell at a time."""
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(columns))
    cells = [list(map(str, np.asarray(col).tolist())) for col in columns.values()]
    lines.extend(",".join(row) for row in zip(*cells))
    return ("\n".join(lines) + "\n").encode()


class TestWriteTable:
    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=columns(), comment=st.none() | TEXT)
    @example(table={"signed_zero": from_bits([float_bits(0.0), float_bits(-0.0)] * 3),
                    "nan_payloads": from_bits([0x7FF8000000000000, 0x7FF0000000000001,
                                               0xFFF8000000000000, 0x7FF0000000000002,
                                               float_bits(math.inf), float_bits(5e-324)]),
                    "int": np.arange(-3, 3), "str": list("abcdef")},
             comment="config_hash=abc")
    @example(table={"empty_float": np.array([]), "empty_int": np.array([], dtype=np.int64),
                    "empty_str": []}, comment=None)
    def test_matches_per_cell_str(self, table, comment, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, table, comment)
        assert path.read_bytes() == reference_table(table, comment)


class TestSummaryJson:
    def test_deterministic_and_sorted(self, tmp_path):
        payload = {"zeta": 1, "alpha": {"b": np.float64(2.5), "a": np.int64(3)}}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_summary_json(a, payload)
        write_summary_json(b, dict(reversed(payload.items())))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")

    def test_nan_becomes_null(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary_json(path, {"x": float("nan"), "arr": np.array([1.0, math.nan])})
        doc = json.loads(path.read_text())
        assert doc["x"] is None
        assert doc["arr"] == [1.0, None]

    def test_numpy_scalars_become_plain(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary_json(path, {"n": np.int64(4), "f": np.float32(0.5),
                                  "tup": (np.int64(1), 2)})
        doc = json.loads(path.read_text())
        assert doc == {"n": 4, "f": 0.5, "tup": [1, 2]}
