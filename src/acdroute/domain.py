"""Shared vocabulary: vendors, route groups, the failover rule on signaling
status codes, disconnect causes, time."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from typing import Callable, Optional, Tuple

VendorId = int

TS_FORMAT = "%Y-%m-%d %H:%M:%S"

# TS_FORMAT with every field zero-padded, its groups the date and the clock;
# ``[0-9]``, because ``\d`` in a str pattern also matches non-ASCII digits
_TS_TEXT = re.compile(r"([0-9]{4}-[0-9]{2}-[0-9]{2}) ([0-9]{2}:[0-9]{2}:[0-9]{2})")

DEFAULT_LOAD_MIN = 0.1


def format_ts(ts: datetime) -> str:
    """``ts`` as ``TS_FORMAT`` text, truncated to the second; an aware
    timestamp is written as its wall time, without the offset.

    ``isoformat`` pads the year to four digits, where ``strftime`` writes year
    999 as ``999``, which ``parse_ts`` cannot read back; it is also ~3x cheaper.
    """
    if ts.tzinfo is not None:
        ts = ts.replace(tzinfo=None)
    return ts.isoformat(" ", "seconds")


# "00" .. "59": a second's text, a minute's, and under 24 an hour's
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))


def second_texts(start: datetime) -> Callable[[int], str]:
    """``text(s)``, which is ``format_ts(start + timedelta(seconds=s))`` for
    whole seconds ``s``, without a ``datetime`` per call: a day's date head,
    from ``format_ts`` and kept per day, then the ``HH:MM:`` and ``SS``
    pieces. Past the last ``datetime`` it raises ``OverflowError``, as the
    addition does."""
    midnight = start.replace(hour=0, minute=0, second=0, microsecond=0)
    offset = start.hour * 3600 + start.minute * 60 + start.second
    minutes = [f"{hh}:{mm}:" for hh in _TWO_DIGITS[:24] for mm in _TWO_DIGITS]
    heads = {}

    def text(s: int) -> str:
        s += offset  # from here on, seconds after the start's midnight
        day = s // 86400
        head = heads.get(day)
        if head is None:
            head = heads[day] = format_ts(midnight + timedelta(day))[:11]
        s -= day * 86400
        return f"{head}{minutes[s // 60]}{_TWO_DIGITS[s % 60]}"
    return text


def parse_ts(text: str) -> datetime:
    """Read ``YYYY-MM-DD HH:MM:SS`` exactly, each field zero-padded and in
    ASCII digits; where ``strptime`` also reads unpadded fields and other
    digits, this refuses them, and is about 15x cheaper."""
    if _TS_TEXT.fullmatch(text) is None:
        raise ValueError(f"timestamp {text!r} is not YYYY-MM-DD HH:MM:SS")
    return datetime.fromisoformat(text)


def triggers_failover(code: int) -> bool:
    """Whether a final response with this 3-digit signaling status code makes
    billing try the next route.

    Only a 4xx, 5xx or 6xx failure does. A success never does, which is
    exactly the loophole a false-answer vendor exploits: signal "answered"
    immediately and no backup route is ever attempted.
    """
    if not isinstance(code, int) or isinstance(code, bool):
        raise ValueError(f"response code must be an integer, got {code!r}")
    if not 100 <= code <= 699:
        raise ValueError(f"response code out of range 100-699: {code}")
    return code >= 400


class DisconnectCause(Enum):
    """Why a call leg ended. Values double as the CDR CSV tokens."""

    NORMAL_CLEARING = "normal"
    NO_USER_RESPONDING = "no_answer"
    OTHER = "other"


def validate_vendor_id(vendor: int) -> int:
    if not isinstance(vendor, int) or isinstance(vendor, bool) or vendor < 0:
        raise ValueError(f"vendor id must be a non-negative integer, got {vendor!r}")
    return vendor


def validate_preference(pref: int) -> int:
    """Billing preference: static route priority between 1 and 9."""
    if not isinstance(pref, int) or isinstance(pref, bool) or not 1 <= pref <= 9:
        raise ValueError(f"preference must be an integer in 1..9, got {pref!r}")
    return pref


def validate_prefs_and_floor(prefs: Tuple[int, int], load_min: float) -> None:
    """The route-pair rules that need no vendor ids: two distinct billing
    preferences, and a weak-route floor in [0, 0.5)."""
    if len(prefs) != 2:
        raise ValueError("exactly two routes participate in a routing group")
    for pref in prefs:
        validate_preference(pref)
    if prefs[0] == prefs[1]:
        raise ValueError("the two routes must have distinct billing preferences")
    if not 0.0 <= load_min < 0.5:
        raise ValueError(f"load_min must lie in [0, 0.5), got {load_min}")


@dataclass(frozen=True)
class RouteGroup:
    """The two routes of one destination: vendor ids, their billing
    preferences (same order) and the weak route's minimum load share."""

    vendors: Tuple[VendorId, VendorId]
    prefs: Tuple[int, int]
    load_min: float = DEFAULT_LOAD_MIN

    def __post_init__(self) -> None:
        if len(self.vendors) != 2 or self.vendors[0] == self.vendors[1]:
            raise ValueError("a routing group holds exactly two distinct vendors")
        for vendor in self.vendors:
            validate_vendor_id(vendor)
        validate_prefs_and_floor(self.prefs, self.load_min)


def validate_acd(acd_min: Optional[float]) -> Optional[float]:
    """An ACD in minutes: None (no evidence) or a finite non-negative number;
    a NaN or an infinity would make every load and target NaN."""
    if acd_min is not None and not (math.isfinite(acd_min) and acd_min >= 0):
        raise ValueError(f"ACD must be a finite non-negative number, got {acd_min}")
    return acd_min


def parse_digits(text: str, what: str) -> int:
    """A non-negative integer in the one form ``str`` writes it: ASCII digits
    without a leading zero, as the CDR row grammar also reads them. The JSON
    codec reads ids and counts with it; ``int()`` also reads "+5", " 5 ",
    "5_5", "05" and non-ASCII digits, so two spellings could name one vendor."""
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and text != "0"):
        raise ValueError(f"bad {what} {text!r}")
    return int(text)


def whole_seconds(minutes: float) -> int:
    """A period given in minutes as whole seconds; fractions of a second,
    beyond float rounding, are an error rather than silently truncated."""
    seconds = minutes * 60
    if not math.isfinite(seconds) or abs(seconds - round(seconds)) > 1e-6:
        raise ValueError(f"{minutes} min is not a whole number of seconds")
    return round(seconds)
