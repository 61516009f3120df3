"""Timeline-assertion helpers: ordering and containment checks over
:class:`repro.profiling.Timeline` spans, so behaviour tests can pin down
*when and in what order* mechanisms fired (the third leg of the verify
stack beside goldens and the sanitizer)."""

from __future__ import annotations

from collections import Counter

from repro.profiling.timeline import Span, Timeline


def assert_span_within(
    timeline: Timeline, name, start, end, *, cat=None, track=None
) -> list[Span]:
    """Assert at least one matching span lies entirely inside
    ``[start, end]`` (seconds); returns the spans that do."""
    spans = timeline.spans(name, cat=cat, track=track)
    assert spans, f"no span named {name!r} (cat={cat}, track={track})"
    inside = [
        s for s in spans if s.start >= start - 1e-12 and s.end <= end + 1e-12
    ]
    assert inside, (
        f"no span {name!r} within [{start}, {end}]; saw "
        + ", ".join(f"[{s.start:.6f}, {s.end:.6f}]" for s in spans[:8])
    )
    return inside


def assert_ordering(timeline: Timeline, *names, strict: bool = False) -> None:
    """Assert each name has at least one span and their *first
    occurrences* appear in the given order (by start time). With
    ``strict=True`` equal start times also fail."""
    assert len(names) >= 2, "need at least two names to order"
    firsts = []
    for name in names:
        spans = timeline.spans(name)
        assert spans, f"no span named {name!r}"
        firsts.append(min(s.start for s in spans))
    for (a, ta), (b, tb) in zip(zip(names, firsts), zip(names[1:], firsts[1:])):
        ok = ta < tb if strict else ta <= tb
        assert ok, (
            f"expected {a!r} (first at {ta:.9f}s) before {b!r} "
            f"(first at {tb:.9f}s)"
        )


def exchange_bytes(timeline: Timeline) -> Counter:
    """Bytes of the fabric links' ``<kind>:exchange`` spans by (link
    name, forward): each :meth:`FabricLink.charge` emits one such span
    on its link's ``fabric/<a>-><b>`` track."""
    out: Counter = Counter()
    for span in timeline.spans(cat="fabric"):
        kind, _, what = span.name.partition(":")
        if what == "exchange":
            link = f"{kind}:{span.track.removeprefix('fabric/')}"
            out[link, span.args["forward"]] += span.args["bytes"]
    return out
