"""Property test (hypothesis): the blocked forms == the per-trip oracle.

For *every* random block size and chaos-grade stream — NaN coordinates
and geodesic lengths, out-of-bounds points, lying batteries, timestamps
jumping both ways, a handful of bikes hopping across the plane — the
blocked validator+buffer pipeline produces exactly the accounting of the
per-trip reference (``reference.py``): same accept/reject decisions,
same per-rule counters, same dead-letter rows (rule, reason, seq), same
release and flush order, same carried validator state.  The teleport
rule is drawn off and on, and the buffer capacity small enough that
hostile streams overflow it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from .test_blocked_stream import assert_oracle_parity  # noqa: E402
from .test_properties import streams  # noqa: E402  (the hostile trip mix)


class TestBlockedOracleProperty:
    @given(
        stream=streams,
        block_size=st.integers(min_value=1, max_value=64),
        lateness=st.floats(min_value=0.0, max_value=3600.0),
        max_bike_speed_mps=st.sampled_from([0.0, 5.0, 20.0]),
        max_pending=st.sampled_from([4, 16]),
    )
    @settings(max_examples=120, deadline=None)
    def test_blocked_equals_scalar_oracle(
        self, stream, block_size, lateness, max_bike_speed_mps, max_pending
    ):
        assert_oracle_parity(
            stream,
            block_size,
            lateness_s=lateness,
            max_pending=max_pending,
            max_bike_speed_mps=max_bike_speed_mps,
        )
