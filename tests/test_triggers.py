"""Unit tests for triggering policies (paper §3.1, §4.1.1)."""
import numpy as np
import pytest

from repro.core.registry import TRIGGERS
from repro.supervisor.triggers import DataAmountTrigger, TimeTrigger


def _inform(trigger, timestamps):
    ts = np.asarray(timestamps, np.int64)
    return trigger.inform(np.arange(len(ts)), ts)


class TestDataAmountTrigger:
    def test_fires_every_n(self):
        t = DataAmountTrigger(data_points_for_trigger=3)
        assert _inform(t, [0] * 7) == [2, 5]

    def test_state_carries_across_batches(self):
        t = DataAmountTrigger(data_points_for_trigger=5)
        assert _inform(t, [0] * 3) == []
        assert _inform(t, [0] * 3) == [1]  # 5th overall sample is index 1
        assert _inform(t, [0] * 4) == [3]

    def test_multiple_triggers_in_one_batch(self):
        t = DataAmountTrigger(data_points_for_trigger=2)
        assert _inform(t, [0] * 7) == [1, 3, 5]

    def test_every_sample_triggers(self):
        t = DataAmountTrigger(data_points_for_trigger=1)
        assert _inform(t, [0] * 3) == [0, 1, 2]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DataAmountTrigger(data_points_for_trigger=0)

    def test_registered(self):
        assert TRIGGERS.get("DataAmountTrigger") is DataAmountTrigger


class TestTimeTrigger:
    def test_fires_on_boundary_crossing(self):
        t = TimeTrigger(every=10, start_timestamp=0)
        # boundary at 10: first sample with ts >= 10 closes the window
        assert _inform(t, [0, 3, 9, 10, 12]) == [2]

    def test_year_per_trigger_cloc_style(self):
        t = TimeTrigger(every=1, start_timestamp=2004)
        out = _inform(t, [2004, 2004, 2005, 2005, 2006])
        assert out == [1, 3]  # window closes just before each new year

    def test_trigger_before_first_sample_of_batch(self):
        t = TimeTrigger(every=10, start_timestamp=0)
        assert _inform(t, [1, 2]) == []
        assert _inform(t, [11, 12]) == [-1]  # boundary crossed between batches

    def test_multiple_empty_intervals_collapse(self):
        t = TimeTrigger(every=10, start_timestamp=0)
        assert _inform(t, [0, 45]) == [0]  # one trigger, not four
        # next boundary is now 50
        assert _inform(t, [49, 50]) == [0]

    def test_first_sample_past_the_first_boundary_opens_its_window(self):
        t = TimeTrigger(every=1, start_timestamp=2004)
        # 2004 and 2005 are empty: the 2006 samples train together
        assert _inform(t, [2006, 2006, 2006, 2007, 2007, 2008]) == [2, 4]

    def test_start_defaults_to_first_timestamp(self):
        t = TimeTrigger(every=5)
        assert _inform(t, [100, 104, 105]) == [1]

    def test_decreasing_timestamps_rejected(self):
        t = TimeTrigger(every=5, start_timestamp=0)
        with pytest.raises(ValueError, match="non-decreasing"):
            _inform(t, [3, 2])

    def test_statefulness_across_many_batches(self):
        t = TimeTrigger(every=1, start_timestamp=2004)
        fired = []
        for year in range(2004, 2008):
            out = _inform(t, [year] * 3)
            fired.extend(out)
        # each new year fires once, before its first sample
        assert fired == [-1, -1, -1]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TimeTrigger(every=0)

    def test_registered(self):
        assert TRIGGERS.get("TimeTrigger") is TimeTrigger
