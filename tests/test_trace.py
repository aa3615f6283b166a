import io
import math

import numpy as np
import pytest

from safedual import TrialTrace, build_trace, regret_series
from safedual.trace import CSV_HEADER, read_trace_csv


class TestRegretSeries:
    def test_frozen_example(self):
        f_star = 2.0 * math.log(0.6)
        regret = regret_series(np.array([-1.2, -1.1]), f_star)
        assert regret == pytest.approx([0.17834875246801856, 0.25669750493603713])

    def test_constant_at_optimum(self):
        regret = regret_series(np.full(5, 3.0), 3.0)
        assert np.array_equal(regret, np.zeros(5))


class TestBuildTrace:
    def test_columns_consistent_with_iterates(self, tiny):
        x_hist = np.array([[0.2, 0.3], [0.8, 0.8]])
        lam_hist = np.array([[4.0], [1.0]])
        f_star = 2.0 * math.log(0.6)
        trace = build_trace(tiny, "DGM", x_hist, lam_hist, trial_id=3,
                            f_star=f_star, x_star=np.array([0.5, 0.5]))
        assert trace.objective[0] == pytest.approx(math.log(0.3) + math.log(0.4))
        assert trace.infeasibility == pytest.approx([0.0, 0.6])
        assert trace.min_slack == pytest.approx([0.5, -0.6])
        assert trace.max_lambda == pytest.approx([4.0, 1.0])
        assert trace.distance_to_opt[0] == pytest.approx(math.hypot(0.3, 0.2))
        assert trace.regret_cum == pytest.approx(
            np.cumsum(f_star - trace.objective)
        )

    def test_infeasibility_zero_when_feasible(self, tiny):
        trace = build_trace(tiny, "DGM", np.array([[0.4, 0.4]]), np.array([[1.0]]))
        assert trace.infeasibility[0] == 0.0

    def test_infeasibility_positive_part_only(self, tiny):
        trace = build_trace(tiny, "DGM", np.array([[1.0, 0.5]]), np.array([[1.0]]))
        assert trace.infeasibility[0] == pytest.approx(0.5)

    def test_nan_without_reference(self, tiny):
        trace = build_trace(tiny, "DGM", np.array([[0.2, 0.2]]), np.array([[1.0]]))
        assert np.isnan(trace.regret_cum).all()
        assert np.isnan(trace.distance_to_opt).all()


class TestCsvRoundTrip:
    def _sample(self, tiny):
        x_hist = np.array([[0.2, 0.3], [0.45, 0.55], [0.5, 0.5]])
        lam_hist = np.array([[4.0], [2.0], [5.0 / 3.0]])
        return build_trace(tiny, "SDGM", x_hist, lam_hist, trial_id=11,
                           f_star=2.0 * math.log(0.6), x_star=np.array([0.5, 0.5]))

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
        for i, t in enumerate(trace.iterations()):
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
