"""Trace CSV parsing: strict header, contiguous indices, row-numbered errors."""

import numpy as np
import pytest

from bpac.core import StreamObservation
from bpac.simulation import generate_event, uniform_linear
from bpac.traces import TraceFormatError, load_trace, write_trace

HEADER = "index,uncertainty,loss,tokens_cheap,tokens_expensive"


def sample_events(n=20, seed=5):
    rng = np.random.default_rng(seed)
    spec = uniform_linear()
    return [generate_event(spec, rng, t) for t in range(1, n + 1)]


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        events = sample_events()
        path = tmp_path / "trace.csv"
        write_trace(path, events)
        assert load_trace(path) == events

    def test_numpy_scalar_fields_round_trip(self, tmp_path):
        scores, losses = np.array([0.25, 0.5]), np.array([0.0, 1.0])
        tokens = np.array([100, 500])
        events = [StreamObservation(index=i + 1, uncertainty=scores[i],
                                    latent_loss=losses[i], tokens_cheap=tokens[0],
                                    tokens_expensive=tokens[1]) for i in range(2)]
        path = tmp_path / "trace.csv"
        write_trace(path, events)
        assert path.read_text().splitlines()[1] == "1,0.25,0.0,100,500"
        assert load_trace(path) == events

    def test_written_bytes_are_stable(self, tmp_path):
        events = sample_events()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(a, events)
        write_trace(b, events)
        assert a.read_bytes() == b.read_bytes()

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(f"{HEADER}\n1,0.5,0.0,100,500\n\n2,0.25,1.0,90,510\n")
        events = load_trace(path)
        assert len(events) == 2
        assert events[1].uncertainty == 0.25


class TestRejections:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            load_trace(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("idx,u,l,tc,te\n1,0.5,0.0,100,500\n")
        with pytest.raises(TraceFormatError, match="header"):
            load_trace(path)

    def test_reordered_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "uncertainty,index,loss,tokens_cheap,tokens_expensive\n0.5,1,0.0,100,500\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_duplicate_index_names_the_row(self, tmp_path):
        path = tmp_path / "dup.csv"
        rows = [HEADER] + [f"{t},0.5,0.0,100,500" for t in range(1, 8)]
        rows.append("7,0.5,0.0,100,500")  # repeats index 7 on data row 8
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(TraceFormatError, match=r"row 8: .*expected 8, got 7") as err:
            load_trace(path)
        assert err.value.row == 8

    def test_gap_in_indices(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(f"{HEADER}\n1,0.5,0.0,100,500\n3,0.5,0.0,100,500\n")
        with pytest.raises(TraceFormatError, match="expected 2, got 3"):
            load_trace(path)

    def test_loss_out_of_range(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text(f"{HEADER}\n1,0.5,1.5,100,500\n")
        with pytest.raises(TraceFormatError, match=r"row 1: loss must lie in \[0, 1\]"):
            load_trace(path)

    def test_negative_tokens(self, tmp_path):
        path = tmp_path / "tok.csv"
        path.write_text(f"{HEADER}\n1,0.5,0.0,-3,500\n")
        with pytest.raises(TraceFormatError, match="row 1: tokens_cheap"):
            load_trace(path)

    def test_non_numeric_uncertainty(self, tmp_path):
        path = tmp_path / "unc.csv"
        path.write_text(f"{HEADER}\n1,high,0.0,100,500\n")
        with pytest.raises(TraceFormatError, match="uncertainty must be a number"):
            load_trace(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(f"{HEADER}\n1,0.5,0.0,100\n")
        with pytest.raises(TraceFormatError, match="expected 5 fields, got 4"):
            load_trace(path)
