import json
from datetime import datetime
from typing import Dict, List, Optional, Tuple

import pytest

from acdroute.aggregate import ClosedInterval, VendorIntervalStats
from acdroute.codec import decode, encode
from acdroute.rejection import QualityInput, compute_rejection
from acdroute.sim import DurationSpec, VendorModel


def test_mapping_keys_sort_as_integers():
    assert list(encode({10: 1, 9: 2})) == ["9", "10"]


def test_closed_interval_round_trip_through_json():
    stats = tuple(VendorIntervalStats(v, 0, 0, 0, 1, 1, 2.0, 2.0) for v in (9, 10))
    interval = ClosedInterval(
        opened_at=datetime(2020, 1, 1), closed_at=datetime(2020, 1, 1, 0, 20),
        vendors=(9, 10), prefs=(9, 8), stats=stats,
        result=compute_rejection(QualityInput((2.0, None), (9, 8))),
        received={10: 3, 9: 4}, rejected={10: 0, 9: 1},
    )
    data = json.loads(json.dumps(encode(interval)))
    assert list(data["received"]) == ["9", "10"]
    assert decode(ClosedInterval, data) == interval


@pytest.mark.parametrize("kind, data", [
    (int, True),
    (int, 1.0),
    (bool, "false"),
    (float, "1.5"),
    (float, float("nan")),
    (float, 10**400),
    (str, 5),
    (datetime, "yesterday"),
    (Tuple[int, int], [1]),
    (List[int], {"a": 1}),
    (Dict[int, int], {"x": 1}),
    (Optional[int], "1"),
    (Dict[int, int], {"+5_5": 1}),
    (Dict[int, int], {" 62": 1}),
    (Dict[int, int], {"٥٥": 1}),
    (Dict[int, int], {"055": 1}),
    (Dict[int, int], {"-5": 1}),
])
def test_wrong_types_are_value_errors(kind, data):
    with pytest.raises(ValueError):
        decode(kind, data)


def test_error_names_the_path():
    with pytest.raises(ValueError, match=r"\$\.duration\.mean_s"):
        decode(VendorModel, {"kind": "honest", "duration": {"mean_s": "long"}})
    with pytest.raises(ValueError, match=r"\$\.duration\.mean_min"):
        decode(VendorModel, {"kind": "honest", "duration": {"mean_min": [8]}})


def test_aliases_and_kind_dependent_defaults():
    fraud = decode(VendorModel, {"kind": "false_answer", "hold": {"mean_min": 0.5}})
    assert fraud.answer_prob == 1.0 and fraud.failure_code == 408
    assert fraud.duration == DurationSpec("exponential", mean_s=30.0)
    honest = decode(VendorModel, {"kind": "honest", "duration": {"family": "fixed",
                                                                  "value_s": 60}})
    assert honest.answer_prob == 0.7 and honest.failure_code == 480
