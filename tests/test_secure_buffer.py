"""Tests for the link recorder (the obliviousness observable)."""

from repro.core.commands import SdimmCommand
from repro.core.secure_buffer import LinkRecorder
from repro.obs.audit import link_instants, link_shapes
from repro.obs.tracer import CATEGORY_LINK, CollectingTracer


def _traced(lane="link"):
    tracer = CollectingTracer()
    return tracer, LinkRecorder(tracer=tracer, lane=lane)


class TestLinkShape:
    def test_shape_excludes_target(self):
        """The target SDIMM is a uniform function of a secret leaf; the
        shape (what must be pattern-independent) excludes it."""
        tracer, recorder = _traced()
        recorder.up(SdimmCommand.ACCESS, 0, 64)
        recorder.up(SdimmCommand.ACCESS, 3, 64)
        first, second = link_shapes(tracer.events, "link")
        assert first == second

    def test_shape_distinguishes_command(self):
        tracer, recorder = _traced()
        recorder.up(SdimmCommand.ACCESS, 0, 64)
        recorder.up(SdimmCommand.APPEND, 0, 64)
        access, append = link_shapes(tracer.events, "link")
        assert access != append

    def test_shape_distinguishes_size(self):
        tracer, recorder = _traced()
        recorder.down(SdimmCommand.FETCH_RESULT, 0, 8)
        recorder.down(SdimmCommand.FETCH_RESULT, 0, 64)
        small, large = link_shapes(tracer.events, "link")
        assert small != large

    def test_shapes_read_one_lane(self):
        tracer = CollectingTracer()
        top = LinkRecorder(tracer=tracer, lane="top-link")
        inner = LinkRecorder(tracer=tracer, lane="group0-link")
        top.up(SdimmCommand.ACCESS, 0, 64)
        inner.up(SdimmCommand.FETCH_DATA, 1, 0)
        top.down(SdimmCommand.FETCH_RESULT, 0, 64)
        assert [shape[1] for shape in link_shapes(tracer.events,
                                                  "top-link")] == \
            ["ACCESS", "FETCH_RESULT"]
        (event,) = link_instants(tracer.events, "group0-link")
        assert event.args == {"direction": "up", "sdimm": 1,
                              "payload_bytes": 0}


class TestLinkRecorder:
    def test_records_both_directions(self):
        tracer, recorder = _traced()
        recorder.up(SdimmCommand.ACCESS, 1, 64)
        recorder.down(SdimmCommand.FETCH_RESULT, 1, 64)
        assert len(recorder) == 2
        assert [event.args["direction"] for event in tracer.events] == \
            ["up", "down"]
        assert all(event.category == CATEGORY_LINK
                   for event in tracer.events)

    def test_disabled_recorder_is_free(self):
        """With tracing disabled the recorder stores no message, only
        the count the serving tier meters service time by."""
        recorder = LinkRecorder()
        recorder.up(SdimmCommand.ACCESS, 1, 64)
        recorder.down(None, 1, 64)
        assert len(recorder) == 2
        assert vars(recorder).keys() == {"count", "tracer", "lane", "clock"}

    def test_shapes_align_with_events(self):
        tracer, recorder = _traced()
        recorder.up(SdimmCommand.PROBE, 0, 0)
        recorder.down(None, 0, 32)
        assert link_shapes(tracer.events, "link") == [
            ("up", "PROBE", 0), ("down", "data", 32)]
