"""Property-based wire-codec round-trips (satellite, PR 5).

Every encodable message must decode to an equal message — or raise
``ProtocolError`` — and a stream mixing valid frames with garbage must
never desync.  Requires hypothesis (installed in CI); skipped cleanly
where it is absent.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.core.engine import ProtectionEngine  # noqa: E402
from repro.core.trace import Trace  # noqa: E402
from repro.errors import ProtocolError  # noqa: E402
from repro.lppm.base import LPPM  # noqa: E402
from repro.service.api import (  # noqa: E402
    AuthChallenge,
    AuthRequest,
    AuthResponse,
    ClusterHeartbeat,
    ClusterHeartbeatAck,
    ClusterJoin,
    ClusterJoined,
    ClusterLeave,
    ClusterLeft,
    ClusterMembershipRequest,
    ClusterMembershipResponse,
    ErrorEnvelope,
    HelloRequest,
    HelloResponse,
    MESSAGE_TYPES,
    MetricsRequest,
    MetricsResponse,
    ProtectRequest,
    ProtectResponse,
    ProtectionService,
    PublishedPiece,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    StreamAck,
    StreamClose,
    StreamClosed,
    StreamFlush,
    StreamFlushed,
    StreamOpen,
    StreamOpened,
    StreamRecord,
    SUPPORTED_WIRE_VERSIONS,
    UploadRequest,
    UploadResponse,
    decode_frame,
    decode_frame_any,
    decode_frame_v2,
    decode_message,
    encode_message,
    encode_message_v2,
    is_v2_frame,
)


class _Noop(LPPM):
    name = "noop"

    def apply(self, trace, rng=None):
        return trace


class _NeverAttack:
    name = "never"

    def reidentify(self, trace):
        return "<nobody>"


def stub_engine():
    return ProtectionEngine([_Noop()], [_NeverAttack()])

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False, width=64)
_lng = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False, width=64)
#: Unicode ids, incl. whitespace/quotes/CJK/emoji — never newlines (the
#: framing character) because a user id is a JSON *string value*, where
#: a newline is escaped to \n and survives the frame; the raw codepoint
#: test below covers it.
_user_id = st.text(min_size=1, max_size=24)
_big_int = st.integers(min_value=0, max_value=10**24)
_request_id = st.one_of(
    st.integers(min_value=-(10**18), max_value=10**18),
    st.text(min_size=1, max_size=32),
)


@st.composite
def wire_traces(draw, min_size=0, max_size=12):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    ts = sorted(
        draw(
            st.lists(
                st.floats(
                    min_value=0.0, max_value=1e12, allow_nan=False, width=64
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    lats = draw(st.lists(_lat, min_size=n, max_size=n))
    lngs = draw(st.lists(_lng, min_size=n, max_size=n))
    return Trace(draw(_user_id), ts, lats, lngs)


@st.composite
def published_pieces(draw):
    return PublishedPiece(
        pseudonym=draw(_user_id),
        mechanism=draw(st.sampled_from(["geoi", "trl", "hmc", "geoi>trl"])),
        distortion_m=draw(_finite),
        trace=draw(wire_traces()),
        original_records=draw(st.one_of(st.none(), _big_int)),
    )


@st.composite
def member_entries(draw):
    """Registry member dicts as they travel inside cluster messages."""
    return {
        "endpoint": draw(_user_id),
        "worker_id": draw(st.text(max_size=16)),
        "capacity": draw(st.integers(0, 64)),
        "state": draw(st.sampled_from(["alive", "stale", "left"])),
        "joined_epoch": draw(st.integers(0, 10**9)),
        "inflight": draw(st.integers(0, 10**6)),
        "age_s": draw(st.floats(0.0, 1e9, allow_nan=False)),
    }


@st.composite
def wire_messages(draw):
    kind = draw(
        st.sampled_from(
            [
                "protect_request",
                "protect_response",
                "upload_request",
                "upload_response",
                "query_request",
                "query_response",
                "stats_request",
                "stats_response",
                "auth_request",
                "auth_challenge",
                "auth_response",
                "stream_open",
                "stream_opened",
                "stream_record",
                "stream_ack",
                "stream_flush",
                "stream_flushed",
                "stream_close",
                "stream_closed",
                "cluster_join",
                "cluster_joined",
                "cluster_leave",
                "cluster_left",
                "cluster_heartbeat",
                "cluster_heartbeat_ack",
                "cluster_membership_request",
                "cluster_membership_response",
                "metrics_request",
                "metrics_response",
                "hello_request",
                "hello_response",
                "error",
            ]
        )
    )
    if kind == "protect_request":
        return ProtectRequest(
            trace=draw(wire_traces()),
            daily=draw(st.booleans()),
            chunk_s=draw(st.floats(min_value=1.0, max_value=1e9, allow_nan=False)),
        )
    if kind == "protect_response":
        return ProtectResponse(
            user_id=draw(_user_id),
            pieces=tuple(draw(st.lists(published_pieces(), max_size=3))),
            erased_records=draw(_big_int),
            original_records=draw(_big_int),
        )
    if kind == "upload_request":
        return UploadRequest(
            trace=draw(wire_traces()), day_index=draw(st.integers(0, 10**6))
        )
    if kind == "upload_response":
        return UploadResponse(
            user_id=draw(_user_id),
            pseudonyms=tuple(draw(st.lists(_user_id, max_size=4))),
            published_records=draw(_big_int),
            erased_records=draw(_big_int),
        )
    if kind == "query_request":
        return QueryRequest(
            kind=draw(st.sampled_from(["count", "top_cells"])),
            lat=draw(st.one_of(st.none(), _lat)),
            lng=draw(st.one_of(st.none(), _lng)),
            k=draw(st.integers(1, 10**9)),
        )
    if kind == "query_response":
        cells = draw(
            st.lists(
                st.tuples(
                    st.integers(-(10**9), 10**9),
                    st.integers(-(10**9), 10**9),
                    _big_int,
                ),
                max_size=4,
            )
        )
        return QueryResponse(
            kind="top_cells", count=draw(st.one_of(st.none(), _big_int)),
            cells=tuple(cells),
        )
    if kind == "stats_request":
        return StatsRequest()
    if kind == "stats_response":
        counters = st.dictionaries(
            st.text(min_size=1, max_size=16), _big_int, max_size=4
        )
        return StatsResponse(proxy=draw(counters), server=draw(counters))
    if kind == "stream_open":
        return StreamOpen(
            user_id=draw(_user_id),
            window=draw(st.one_of(st.none(), st.sampled_from(["tumbling", "session"]))),
            window_s=draw(st.one_of(st.none(), st.floats(1.0, 1e9, allow_nan=False))),
            gap_s=draw(st.one_of(st.none(), st.floats(1.0, 1e9, allow_nan=False))),
            resume=draw(st.booleans()),
        )
    if kind == "stream_opened":
        return StreamOpened(
            user_id=draw(_user_id),
            watermark=draw(st.integers(-1, 10**18)),
            next_ordinal=draw(_big_int),
            resumed=draw(st.booleans()),
        )
    if kind == "stream_record":
        records = draw(
            st.lists(
                st.tuples(
                    st.integers(0, 10**18),
                    st.floats(0.0, 1e12, allow_nan=False, width=64),
                    _lat,
                    _lng,
                ),
                max_size=6,
            )
        )
        return StreamRecord(user_id=draw(_user_id), records=tuple(records))
    if kind == "stream_ack":
        return StreamAck(
            user_id=draw(_user_id),
            accepted=draw(_big_int),
            next_ordinal=draw(_big_int),
            watermark=draw(st.integers(-1, 10**18)),
            status=draw(st.sampled_from(["ok", "blocked", "shed", "degraded"])),
            reason=draw(
                st.sampled_from(
                    [
                        "",
                        "backpressure.buffer_full",
                        "overflow.shed_oldest_window",
                        "overflow.degrade_cheap_lppm",
                    ]
                )
            ),
        )
    if kind == "stream_flush":
        return StreamFlush(
            user_id=draw(_user_id),
            acked=draw(st.integers(-1, 10**18)),
            close_window=draw(st.booleans()),
        )
    if kind == "stream_flushed":
        return StreamFlushed(
            user_id=draw(_user_id),
            watermark=draw(st.integers(-1, 10**18)),
            pieces=tuple(draw(st.lists(published_pieces(), max_size=2))),
            erased_records=draw(_big_int),
            pieces_dropped=draw(_big_int),
        )
    if kind == "stream_close":
        return StreamClose(user_id=draw(_user_id))
    if kind == "stream_closed":
        return StreamClosed(
            user_id=draw(_user_id),
            watermark=draw(st.integers(-1, 10**18)),
            records_in=draw(_big_int),
            records_shed=draw(_big_int),
            erased_records=draw(_big_int),
            pieces_published=draw(_big_int),
            windows_closed=draw(_big_int),
        )
    if kind == "cluster_join":
        return ClusterJoin(
            endpoint=draw(_user_id),
            worker_id=draw(st.text(max_size=16)),
            capacity=draw(st.integers(0, 64)),
        )
    if kind == "cluster_joined":
        return ClusterJoined(
            accepted=draw(st.booleans()),
            epoch=draw(st.integers(0, 10**9)),
            members=tuple(draw(st.lists(member_entries(), max_size=3))),
        )
    if kind == "cluster_leave":
        return ClusterLeave(
            endpoint=draw(_user_id), reason=draw(st.text(max_size=64))
        )
    if kind == "cluster_left":
        return ClusterLeft(
            removed=draw(st.booleans()), epoch=draw(st.integers(0, 10**9))
        )
    if kind == "cluster_heartbeat":
        return ClusterHeartbeat(
            endpoint=draw(_user_id), inflight=draw(st.integers(0, 10**6))
        )
    if kind == "cluster_heartbeat_ack":
        return ClusterHeartbeatAck(
            known=draw(st.booleans()), epoch=draw(st.integers(0, 10**9))
        )
    if kind == "cluster_membership_request":
        return ClusterMembershipRequest()
    if kind == "cluster_membership_response":
        return ClusterMembershipResponse(
            epoch=draw(st.integers(0, 10**9)),
            members=tuple(draw(st.lists(member_entries(), max_size=3))),
        )
    if kind == "metrics_request":
        return MetricsRequest()
    if kind == "metrics_response":
        counters = st.dictionaries(
            st.text(min_size=1, max_size=16), _big_int, max_size=4
        )
        return MetricsResponse(
            uptime_s=draw(st.floats(0.0, 1e9, allow_nan=False)),
            versions={"protocol": 1, "build": draw(st.text(max_size=12))},
            transport=draw(counters),
            service={"proxy": draw(counters), "server": draw(counters)},
            stream=draw(counters),
            feature_cache=draw(counters),
            cluster={
                "epoch": draw(st.integers(0, 10**9)),
                "members": draw(st.lists(member_entries(), max_size=2)),
            },
        )
    if kind == "hello_request":
        return HelloRequest(
            versions=tuple(
                sorted(draw(st.sets(st.integers(1, 9), min_size=1, max_size=4)))
            )
        )
    if kind == "hello_response":
        return HelloResponse(
            version=draw(st.sampled_from(list(SUPPORTED_WIRE_VERSIONS))),
            versions=tuple(
                sorted(draw(st.sets(st.integers(1, 9), min_size=1, max_size=4)))
            ),
        )
    if kind == "auth_request":
        return AuthRequest(proof=draw(st.one_of(st.none(), st.text(max_size=128))))
    if kind == "auth_challenge":
        return AuthChallenge(nonce=draw(st.text(min_size=1, max_size=64)))
    if kind == "auth_response":
        return AuthResponse(ok=draw(st.booleans()))
    return ErrorEnvelope(
        code=draw(st.sampled_from(["protocol", "bad_request", "auth", "internal"])),
        message=draw(st.text(max_size=200)),
    )


def _structure(message):
    """Type-tagged body dict — the canonical comparison form (Trace has
    no __eq__, so dataclass equality cannot be used directly)."""
    return (type(message).__name__, message.to_body())


class TestCodecProperties:
    """Satellite: every encodable message decodes to an equal message or
    raises ProtocolError — and never desyncs the stream."""

    @given(message=wire_messages())
    @settings(max_examples=120, deadline=None)
    def test_round_trip_is_lossless_and_stable(self, message):
        line = encode_message(message)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        decoded = decode_message(line)
        assert _structure(decoded) == _structure(message)
        # Exact float round-trip: re-encoding reproduces the bytes.
        assert encode_message(decoded) == line

    @given(message=wire_messages(), request_id=_request_id)
    @settings(max_examples=60, deadline=None)
    def test_id_tags_survive_the_round_trip(self, message, request_id):
        reply_id, decoded = decode_frame(
            encode_message(message, request_id=request_id)
        )
        assert reply_id == request_id
        assert _structure(decoded) == _structure(message)

    @given(
        trace=wire_traces(min_size=1),
        daily=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_traces_cross_the_wire_bit_exact(self, trace, daily):
        request = ProtectRequest(trace=trace, daily=daily)
        decoded = decode_message(encode_message(request))
        assert decoded.trace.user_id == trace.user_id
        assert decoded.trace.fingerprint == trace.fingerprint
        assert np.array_equal(decoded.trace.timestamps, trace.timestamps)
        assert np.array_equal(decoded.trace.lats, trace.lats)
        assert np.array_equal(decoded.trace.lngs, trace.lngs)

    @given(line=st.one_of(st.binary(max_size=200), st.text(max_size=200)))
    @settings(max_examples=120, deadline=None)
    def test_garbage_raises_protocol_error_or_decodes(self, line):
        """decode never raises anything but ProtocolError."""
        try:
            decode_frame(line)
        except ProtocolError:
            pass

    @given(
        lines=st.lists(
            st.one_of(
                st.binary(max_size=120),
                wire_messages().map(encode_message),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_never_desyncs(self, lines):
        """Satellite acceptance: any mix of valid frames and garbage fed
        to the service yields exactly one decodable reply per line —
        the stream position is never lost."""
        import asyncio

        service = ProtectionService(stub_engine())

        async def drive():
            return [await service.handle_wire(line) for line in lines]

        replies = asyncio.run(drive())
        assert len(replies) == len(lines)
        for line, reply in zip(lines, replies):
            # Replies mirror the request framing: anything opening with
            # the v2 magic gets a binary reply, everything else a JSON
            # line — and both must parse cleanly.
            if is_v2_frame(line):
                assert is_v2_frame(reply)
                decode_frame_any(reply)
            else:
                assert reply.endswith(b"\n")
                decode_message(reply)  # must parse cleanly

    @given(message=wire_messages(), request_id=_request_id)
    @settings(max_examples=40, deadline=None)
    def test_every_slug_is_registered(self, message, request_id):
        slug = [s for s, cls in MESSAGE_TYPES.items() if cls is type(message)]
        assert len(slug) == 1


#: Coordinates drawn to include subnormals (5e-324 sits inside ±90).
_ordinal = st.integers(min_value=0, max_value=10**24)


def _trace_bytes(trace):
    """The three column arrays as raw bytes — the bit-exact fingerprint."""
    return (
        np.asarray(trace.timestamps, dtype="<f8").tobytes(),
        np.asarray(trace.lats, dtype="<f8").tobytes(),
        np.asarray(trace.lngs, dtype="<f8").tobytes(),
    )


#: ``--hypothesis-seed=17``'s counterexample: a daily protect of a trace
#: spanning ~3.6e11 s, i.e. ~4.1 million one-day windows, all but a few
#: empty (it used to walk them one by one for ~40 s).
_SEED17_TRACE = Trace(
    "seed-17",
    [2.6663687506381877e-266, 0.99999, 1.1, 360.0, 68163391968.71992,
     197805665803.5055, 218238011083.22745, 266194456848.40698,
     324546360671.7625, 355791849036.71497],
    [86.1, 67.7, 0.0, 11.2, -40.3, 0.0, -47.7, 2.25e-105, 1.6e-186, -86.0],
    [-119.3, 54.3, -107.2, 0.22, 158.7, 123.5, 70.0, 90.9, -153.1, 92.8],
)
#: Window sizes that epoch-scale timestamps absorb (1.6e9 + 1e-7 ==
#: 1.6e9): each used to spin a server thread forever.
_EPOCH_TRACE = Trace("epoch", [1.6e9, 1.6e9 + 60.0], [45.0, 45.0], [4.0, 4.0])
_WINDOW_HANG_FRAMES = [
    encode_message(ProtectRequest(trace=_SEED17_TRACE, daily=True)),
    encode_message_v2(ProtectRequest(trace=_EPOCH_TRACE, daily=True, chunk_s=1e-7)),
    encode_message_v2(StreamOpen(user_id="epoch", window="tumbling", window_s=1e-7)),
    encode_message_v2(StreamRecord(user_id="epoch", records=((0, 1.6e9, 45.0, 4.0),))),
]


class TestBinaryCodecProperties:
    """Tentpole acceptance: every wire message round-trips through the
    v2 binary codec, and the v1 and v2 decodes agree bit-exactly."""

    @given(message=wire_messages(), request_id=_request_id)
    @settings(max_examples=120, deadline=None)
    def test_v2_round_trip_agrees_with_v1(self, message, request_id):
        frame = encode_message_v2(message, request_id=request_id)
        assert is_v2_frame(frame)
        reply_id, via_v2 = decode_frame_v2(frame)
        assert reply_id == request_id
        via_v1 = decode_message(encode_message(message))
        assert _structure(via_v2) == _structure(via_v1) == _structure(message)
        # Deterministic encode: re-framing the decode reproduces the bytes.
        assert encode_message_v2(via_v2, request_id=request_id) == frame

    @given(message=wire_messages())
    @settings(max_examples=60, deadline=None)
    def test_decode_frame_any_sniffs_both_framings(self, message):
        _, from_line = decode_frame_any(encode_message(message))
        _, from_binary = decode_frame_any(encode_message_v2(message))
        assert _structure(from_line) == _structure(from_binary)

    @given(trace=wire_traces(min_size=0), daily=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_v2_traces_are_bit_exact_vs_v1(self, trace, daily):
        request = ProtectRequest(trace=trace, daily=daily)
        _, via_v2 = decode_frame_v2(encode_message_v2(request))
        via_v1 = decode_message(encode_message(request))
        assert via_v2.trace.user_id == trace.user_id
        # tobytes() comparison distinguishes -0.0 from 0.0 and preserves
        # denormals — stricter than array_equal.
        assert _trace_bytes(via_v2.trace) == _trace_bytes(via_v1.trace)
        assert _trace_bytes(via_v2.trace) == _trace_bytes(trace)
        assert via_v2.trace.fingerprint == trace.fingerprint

    def test_v2_edge_trace_unicode_denormal_negzero_empty(self):
        """The named edge cases from the issue, pinned explicitly."""
        edgy = Trace(
            "走β🧭 user\t\"quoted\"",
            [0.0, 1.5, 3.0],
            [5e-324, -5e-324, -0.0],
            [-180.0, 1e-310, 90.0],
        )
        for trace in (edgy, Trace("∅-empty", [], [], [])):
            request = UploadRequest(trace=trace, day_index=7)
            _, via_v2 = decode_frame_v2(encode_message_v2(request))
            via_v1 = decode_message(encode_message(request))
            assert via_v2.trace.user_id == trace.user_id == via_v1.trace.user_id
            assert _trace_bytes(via_v2.trace) == _trace_bytes(trace)
            assert _trace_bytes(via_v1.trace) == _trace_bytes(trace)

    @given(
        user_id=_user_id,
        ordinals=st.lists(_ordinal, min_size=1, max_size=6),
        lat=_lat,
        lng=_lng,
    )
    @settings(max_examples=80, deadline=None)
    def test_stream_record_huge_ordinals_survive_v2(self, user_id, ordinals, lat, lng):
        """Ordinals beyond int64 force the inline fallback; either path
        must round-trip exactly and agree with v1."""
        records = tuple(
            (ordinal, float(i), lat, lng) for i, ordinal in enumerate(ordinals)
        )
        message = StreamRecord(user_id=user_id, records=records)
        _, via_v2 = decode_frame_v2(encode_message_v2(message))
        via_v1 = decode_message(encode_message(message))
        assert _structure(via_v2) == _structure(via_v1) == _structure(message)
        assert [r[0] for r in via_v2.records] == list(ordinals)

    @given(payload=st.binary(max_size=200))
    @settings(max_examples=120, deadline=None)
    def test_v2_garbage_raises_protocol_error_or_decodes(self, payload):
        try:
            decode_frame_v2(b"MRB2" + payload)
        except ProtocolError:
            pass

    @given(
        frames=st.lists(
            st.one_of(
                st.binary(max_size=120).map(lambda b: b"MRB2" + b),
                wire_messages().map(encode_message),
                wire_messages().map(encode_message_v2),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @example(frames=_WINDOW_HANG_FRAMES)
    @settings(max_examples=40, deadline=None)
    def test_mixed_framing_stream_never_desyncs(self, frames):
        """handle_wire sniffs per frame: a mix of v1 lines, v2 frames,
        and binary garbage yields one decodable reply per frame, with
        the reply framing matching the request framing."""
        import asyncio

        service = ProtectionService(stub_engine())

        async def drive():
            return [await service.handle_wire(frame) for frame in frames]

        replies = asyncio.run(drive())
        assert len(replies) == len(frames)
        for frame, reply in zip(frames, replies):
            assert is_v2_frame(reply) == is_v2_frame(frame)
            decode_frame_any(reply)  # must parse cleanly

    def test_window_hang_frames_answer(self):
        """The pinned frames get prompt answers: seed 17's protect is
        served, and every absorbed window size is a bad request."""
        import asyncio

        service = ProtectionService(stub_engine())

        async def drive():
            return [await service.handle_wire(f) for f in _WINDOW_HANG_FRAMES]

        replies = [decode_frame_any(r)[1] for r in asyncio.run(drive())]
        assert isinstance(replies[0], ProtectResponse)
        assert len(replies[0].pieces) == 7  # one per non-empty day
        assert isinstance(replies[2], StreamOpened)
        for reply in (replies[1], replies[3]):
            assert isinstance(reply, ErrorEnvelope)
            assert reply.code == "bad_request"
            assert "float resolution" in reply.message
