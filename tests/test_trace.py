import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_valid_problem
from safedual import trace as trace_module
from safedual.problem import ProblemBatch
from safedual.trace import (
    CHUNK,
    CSV_HEADER,
    METRIC_COLUMNS,
    TraceRecorder,
    TrialTrace,
    build_trace,
    read_trace_csv,
    write_rows,
)

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e300, -2.5, 1.0 / 3.0]
# Values at the edges of %.17g's text: exact ties at the 17th digit, to even
# below (1 + 2**-17 is 1.00000762939453125) and above, the switches between
# fixed and exponent form, 17 nines that round up to a power of ten (so do
# the doubles 1e-14, 1e98 and 1e-243, just below theirs), three-digit
# exponents, both ends of the kernel's own range, the smallest subnormal and
# normal, and the largest float.
EDGES = [
    1 + 2 ** -17, (1 + 2 ** -17) / 2, (1 + 2 ** -20) * 8, -(1 + 2 ** -20) * 16, (1 + 2 ** -10) / 2 ** 11,
    (3 + 2 ** -15) / 8, (1 + 3 * 2 ** -15) / 16, (1 + 3 * 2 ** -9) / 2 ** 12,
    1e-5, 1e-4, 9.9999999999999991e-5, 0.001, 1e16, 1e17, 99999999999999999.0,
    9999999999999999.0, 12345678901234567.0, 123456789012345678.0, 0.99999999999999999, 1e-14, 1e98,
    -1e-243, 1e-100, 1.2345e-300, 1e-280, 1e280, 9.999999999999999e279, 2.2250738585072014e-308,
    5e-324, -np.finfo(float).max, np.finfo(float).max, 0.5, 7.0, -0.0, 0.0,
]
# the optimum of the `tiny` network: both users at 0.5 on the unit link
TINY_OPTIMUM = dict(f_star=2.0 * math.log(0.6), x_star=np.array([0.5, 0.5]))


class TestBuildTrace:
    def test_columns_consistent_with_iterates(self, tiny):
        x_hist = np.array([[0.2, 0.3], [0.8, 0.8]])
        lam_hist = np.array([[4.0], [1.0]])
        f_star = TINY_OPTIMUM["f_star"]
        trace = build_trace(tiny, "DGM", x_hist, lam_hist, trial_id=3, **TINY_OPTIMUM)
        assert trace.objective[0] == pytest.approx(math.log(0.3) + math.log(0.4))
        assert trace.infeasibility == pytest.approx([0.0, 0.6])
        assert trace.min_slack == pytest.approx([0.5, -0.6])
        assert trace.max_lambda == pytest.approx([4.0, 1.0])
        assert trace.distance_to_opt[0] == pytest.approx(math.hypot(0.3, 0.2))
        assert trace.regret_cum == pytest.approx(
            np.cumsum(f_star - trace.objective)
        )

    def test_infeasibility_zero_when_feasible(self, tiny):
        trace = build_trace(tiny, "DGM", np.array([[0.4, 0.4]]), np.array([[1.0]]), **TINY_OPTIMUM)
        assert trace.infeasibility[0] == 0.0

    def test_infeasibility_positive_part_only(self, tiny):
        trace = build_trace(tiny, "DGM", np.array([[1.0, 0.5]]), np.array([[1.0]]), **TINY_OPTIMUM)
        assert trace.infeasibility[0] == pytest.approx(0.5)


class TestTraceRecorder:
    HORIZON = 23  # not a multiple of 7

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        """The same iterates of 2 trials x 2 algorithms, recorded round by
        round with BUFFER_VALUES allowing chunks of a round, 7 rounds or the
        whole horizon, fill the table with the bits of a round-by-round
        reference; a round is in the table once its chunk is full, and the
        rest at flush()."""
        fused = ProblemBatch([random_valid_problem(seed) for seed in (1, 2)] * 2)
        rng = np.random.default_rng(9)
        xs = fused.lower + rng.random((self.HORIZON, fused.n))
        lams = rng.random((self.HORIZON, fused.m))
        x_star = fused.lower + rng.random(fused.n)
        f_star = rng.normal(size=fused.size)
        shape = (len(METRIC_COLUMNS), self.HORIZON, 2, 2)

        reference = np.empty(shape)
        for t, (x, lam) in enumerate(zip(xs, lams), start=1):
            slack = fused.capacities - fused.a_matrix @ x
            excess = np.maximum(-slack, 0.0)
            gap = x - x_star
            objective = np.bincount(
                fused.user_trial, weights=fused.theta * np.log(x + fused.shift), minlength=fused.size
            )
            regret = f_star - objective
            if t > 1:
                regret += reference[METRIC_COLUMNS.index("regret_cum"), t - 2].ravel()
            reference[:, t - 1] = np.reshape([
                objective,
                regret,
                np.sqrt(np.bincount(fused.row_trial, weights=excess * excess, minlength=fused.size)),
                np.sqrt(np.bincount(fused.user_trial, weights=gap * gap, minlength=fused.size)),
                np.maximum.reduceat(lam, fused.row_start[:-1]),
                np.minimum.reduceat(slack, fused.row_start[:-1]),
            ], (len(METRIC_COLUMNS), 2, 2))

        monkeypatch.setattr(trace_module, "WINDOW_VALUES", 1 << 30)  # one window of the whole horizon
        for rounds in (1, 7, self.HORIZON):
            monkeypatch.setattr(trace_module, "BUFFER_VALUES", rounds * max(fused.n, fused.m))
            written = []
            record = TraceRecorder(fused, 2, self.HORIZON, x_star, f_star,
                                   lambda first, rows: written.append(rows.copy()))
            table = record.table
            table[...] = np.nan
            chunks, filled = [], 0  # (first round, rounds) of each chunk seen in the table
            for t, (x, lam) in enumerate(zip(xs, lams), start=1):
                record(t, x, lam, fused.a_matrix @ x)
                recorded = t - t % rounds
                assert not np.isnan(table[:, :recorded]).any(), (rounds, t)
                assert np.isnan(table[:, recorded:]).all(), (rounds, t)
                if recorded > filled:
                    chunks.append((filled + 1, recorded - filled))
                    filled = recorded
            record.flush()
            if filled < self.HORIZON:
                chunks.append((filled + 1, self.HORIZON - filled))
            assert len(written) == 1 and written[0].tobytes() == reference.tobytes(), rounds
            if rounds == 7:
                assert chunks == [(1, 7), (8, 7), (15, 7), (22, 2)]


class TestCsvRoundTrip:
    def _sample(self, tiny):
        x_hist = np.array([[0.2, 0.3], [0.45, 0.55], [0.5, 0.5]])
        lam_hist = np.array([[4.0], [2.0], [5.0 / 3.0]])
        return build_trace(tiny, "SDGM", x_hist, lam_hist, trial_id=11, **TINY_OPTIMUM)

    def test_file_round_trip_is_exact(self, tiny, tmp_path):
        trace = self._sample(tiny)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        back = read_trace_csv(path)
        assert back.trial_id == 11
        assert back.algorithm == "SDGM"
        # %.17g serialization reproduces doubles exactly
        for name in ("objective", "regret_cum", "infeasibility",
                     "distance_to_opt", "max_lambda", "min_slack"):
            assert np.array_equal(getattr(back, name), getattr(trace, name))

    def test_write_accepts_file_object(self, tiny):
        buffer = io.StringIO()
        self._sample(tiny).write_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert lines[1].startswith("11,SDGM,1,")

    def test_write_matches_per_row_format(self, tmp_path):
        """The one-format writer gives the bytes of formatting each value with
        :.17g, and the reader gives the values back, NaN included."""
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1e300, -2.5])
        trace = TrialTrace(
            trial_id=4, algorithm="NDGM", objective=special, regret_cum=special[::-1],
            infeasibility=special * 3, distance_to_opt=-special,
            max_lambda=np.full(8, 1.0 / 3.0), min_slack=np.arange(8.0) - 3.5,
        )
        expected = CSV_HEADER + "\n"
        for i, t in enumerate(range(1, trace.horizon + 1)):
            values = ",".join(f"{column[i]:.17g}" for column in trace.metrics().values())
            expected += f"4,NDGM,{t},{values}\n"
        path = tmp_path / "special.csv"
        trace.write_csv(path)
        assert path.read_text() == expected
        back = read_trace_csv(path)
        for name, column in trace.metrics().items():
            assert np.array_equal(getattr(back, name), column, equal_nan=True), name

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_read_rejects_file_without_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(ValueError, match="empty trace file"):
            read_trace_csv(path)


class TestWriteRows:
    @pytest.mark.parametrize("length", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_matches_per_row_reference(self, length):
        """Chunked rows give the bytes of formatting each row on its own, for a
        prefix holding %, special floats, the edge values of the text, and a
        plain-list index and column as the regret-scaled writer passes them."""
        values = np.resize(SPECIAL, length)
        index = list(range(7, 7 + length))
        columns = [values, values[::-1], np.arange(length) - 0.5, values.tolist(), np.resize(EDGES, length)]
        prefix = "%d%s%%,SDGM,"
        buffer = io.StringIO()
        write_rows(buffer, prefix, index, columns)
        expected = "".join(
            prefix + f"{t}," + ",".join(f"{column[i]:.17g}" for column in columns) + "\n"
            for i, t in enumerate(index)
        )
        assert buffer.getvalue() == expected

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        rows=st.integers(0, CHUNK + 1),
        width=st.integers(1, 3),
        first=st.integers(0, 10 ** 12),
        as_range=st.booleans(),
        special=st.lists(st.sampled_from(SPECIAL + EDGES), max_size=8),
    )
    def test_matches_per_value_reference_on_any_bit_pattern(
        self, seed, rows, width, first, as_range, special
    ):
        """Any float64 bit pattern, over the whole exponent range (nan, +-inf,
        +-0 and subnormals among them), gives the bytes of `%.17g`, and any
        index up to 10**12 those of `%d`, whatever the rows' count."""
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2 ** 64, (width, rows), dtype=np.uint64, endpoint=False).view(np.float64)
        spots = rng.integers(0, values.size, len(special)) if values.size else []
        values.ravel()[spots] = special[:len(spots)]
        index = range(first, first + rows) if as_range else rng.integers(0, 10 ** 12, rows, endpoint=True).tolist()
        buffer = io.StringIO()
        write_rows(buffer, "3,DGM,", index, list(values))
        expected = "".join(
            "3,DGM,%d" % t + "".join(",%.17g" % column[i] for column in values) + "\n"
            for i, t in enumerate(index)
        )
        assert buffer.getvalue() == expected

    def test_refuses_a_negative_index(self):
        with pytest.raises(ValueError, match="negative"):
            write_rows(io.StringIO(), "", [3, -1], [np.ones(2)])

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        def peak(rows):
            index = np.arange(1, rows + 1)
            columns = [np.linspace(k, k + 1, rows) for k in range(12)]
            tracemalloc.start()
            try:
                with open(tmp_path / "rows.csv", "w") as fh:
                    write_rows(fh, "SDGM,", index, columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50 * CHUNK) <= 2 * peak(CHUNK)
