"""Unit tests for the Call Track application."""

import hashlib
import json
import random

from repro.apps.calltrack import STATE_VARS, CallTrackApp

from tests.core.util import make_pair_world


def make_calltrack(save_on_end=True):
    world = make_pair_world(app_factory=lambda: CallTrackApp(unit="test", save_on_end=save_on_end))
    world.start()
    return world, world.primary_app()


def event(sequence, kind="start", busy=2, line=1, caller=0, time=0.0):
    return {
        "kind": kind,
        "caller": caller,
        "line": line,
        "time": time,
        "busy_lines": busy,
        "sequence": sequence,
    }


def test_event_processing_updates_state():
    world, app = make_calltrack()
    app.process_event(event(1, kind="start", busy=1))
    app.process_event(event(2, kind="end", busy=0, line=1))
    app.process_event(event(3, kind="blocked", busy=5, line=-1))
    state = app.state()
    assert state["total_calls"] == 1
    assert state["blocked_calls"] == 1
    assert state["events_processed"] == 3
    assert app.histogram()[1] == 1
    assert app.histogram()[0] == 1
    assert app.histogram()[5] == 1
    assert state["line_seconds"]["1"] == 1.0


def test_duplicates_dropped_in_any_order():
    world, app = make_calltrack()
    assert app.process_event(event(1))
    assert app.process_event(event(3))
    assert not app.process_event(event(1))  # duplicate below window
    assert app.process_event(event(2))  # fills the gap
    assert not app.process_event(event(2))  # now duplicate
    assert not app.process_event(event(3))
    state = app.state()
    assert state["events_processed"] == 3
    assert state["duplicates_dropped"] == 3
    assert state["seen_floor"] == 3
    assert state["seen_recent"] == []


def test_seen_window_compacts_contiguous_prefix():
    world, app = make_calltrack()
    for sequence in (2, 4, 1):
        app.process_event(event(sequence))
    state = app.state()
    assert state["seen_floor"] == 2
    assert state["seen_recent"] == [4]


def test_events_arriving_via_queue():
    world, app = make_calltrack()
    primary = world.pair.primary_node()
    other = [n for n in ("alpha", "beta") if n != primary][0]
    qmgr = world.pair.contexts[other].qmgr
    from repro.core.diverter import inbox_queue_name

    qmgr.send(primary, inbox_queue_name("test"), event(1))
    world.run_for(500.0)
    assert app.events_processed() == 1


def test_event_based_save_on_call_end():
    world, app = make_calltrack(save_on_end=True)
    checkpoints_before = app.api.ftim.checkpoints_taken
    app.process_event(event(1, kind="start"))
    assert app.api.ftim.checkpoints_taken == checkpoints_before  # no save on start
    app.process_event(event(2, kind="end", line=1))
    assert app.api.ftim.checkpoints_taken == checkpoints_before + 1


def test_no_event_saves_when_disabled():
    world, app = make_calltrack(save_on_end=False)
    before = app.api.ftim.checkpoints_taken
    app.process_event(event(1, kind="end", line=0))
    assert app.api.ftim.checkpoints_taken == before


def test_state_restores_across_relaunch():
    world, app = make_calltrack()
    for sequence in range(1, 6):
        app.process_event(event(sequence, kind="end", line=0))
    image = {"globals": app.api.ftim.capture().image["globals"]}
    app.stop()
    app.launch(image)
    restored = app.state()
    assert restored["events_processed"] == 5
    assert restored["seen_floor"] == 5
    # Replaying old events after restore is harmless.
    assert not app.process_event(event(3))


def test_render_histogram_display():
    world, app = make_calltrack()
    for sequence, busy in ((1, 0), (2, 1), (3, 1), (4, 5)):
        app.process_event(event(sequence, busy=busy))
    rendered = app.render_histogram(width=10)
    assert "0 busy" in rendered and "5 busy" in rendered
    assert "4 events" in rendered
    world.run_for(1_000.0)  # display refresh thread runs
    assert app.process.address_space.read("display")


def counting_renders(monkeypatch, app):
    renders = []
    render = app.render_histogram

    def counting(*args, **kwargs):
        renders.append(None)
        return render(*args, **kwargs)

    monkeypatch.setattr(app, "render_histogram", counting)
    return renders


def test_display_renders_again_only_when_histogram_or_count_changes(monkeypatch):
    world, app = make_calltrack(save_on_end=False)
    renders = counting_renders(monkeypatch, app)
    space = app.process.address_space
    app.process_event(event(1, busy=3))
    world.run_for(2_000.0)  # four refreshes, one change
    assert len(renders) == 1
    assert space.read("display") == CallTrackApp.render_histogram(app)
    app.process_event(event(2, busy=3))
    world.run_for(500.0)
    assert len(renders) == 2
    assert "2 events" in space.read("display")
    # A histogram written without an event still shows.
    histogram = space.read("histogram")
    histogram["0"] += 1
    world.run_for(500.0)
    assert len(renders) == 3
    assert space.read("display") == CallTrackApp.render_histogram(app)


def test_display_renders_again_after_a_relaunch(monkeypatch):
    world, app = make_calltrack(save_on_end=False)
    app.process_event(event(1, busy=3))
    world.run_for(1_000.0)
    shown = app.process.address_space.read("display")
    image = {"globals": app.api.ftim.capture().image["globals"]}
    app.stop()
    app.launch(image)
    assert app.process.address_space.read("display") == ""
    renders = counting_renders(monkeypatch, app)
    world.run_for(1_000.0)
    assert len(renders) == 1  # same histogram and count, new process
    assert app.process.address_space.read("display") == shown


def test_dedupe_window_is_pinned():
    """The window over each kind of sequence, as the sorted-set rebuild left it."""
    world, app = make_calltrack(save_on_end=False)
    space = app.process.address_space
    steps = [
        # sequence, accepted, seen_floor, seen_recent
        (1, True, 1, []),  # in order
        (2, True, 2, []),
        (4, True, 2, [4]),  # a gap
        (4, False, 2, [4]),  # a duplicate inside the window
        (3, True, 4, []),  # the gap filled
        (2, False, 4, []),  # below the floor
        (5, True, 5, []),
        (7, True, 5, [7]),
        (6, True, 7, []),
        (8, True, 8, []),
    ]
    for sequence, accepted, floor, recent in steps:
        assert app.process_event(event(sequence)) is accepted
        assert (space.read("seen_floor"), space.read("seen_recent")) == (floor, recent)
    assert space.read("duplicates_dropped") == 2
    assert space.read("events_processed") == 8


def test_dedupe_window_past_a_permanent_gap_is_pinned():
    """500 events past a sequence that never arrives, with local swaps and
    resent duplicates: every step's floor and window size, pinned with the
    values the sorted-set rebuild produced."""
    world, app = make_calltrack(save_on_end=False)
    space = app.process.address_space
    rng = random.Random(28)
    for sequence in range(1, 11):
        app.process_event(event(sequence))
    sequences = list(range(12, 512))  # 11 is lost for good
    for index in range(len(sequences) - 1):
        if rng.random() < 0.1:
            sequences[index], sequences[index + 1] = sequences[index + 1], sequences[index]
    steps, fed = [], []
    for sequence in sequences:
        fed.append(sequence)
        steps.append([sequence, app.process_event(event(sequence)),
                      space.read("seen_floor"), len(space.read("seen_recent"))])
        if rng.random() < 0.1:
            resent = rng.choice(fed[-20:])
            steps.append([resent, app.process_event(event(resent)),
                          space.read("seen_floor"), len(space.read("seen_recent"))])
    assert len(steps) == 537
    assert hashlib.sha256(json.dumps(steps).encode()).hexdigest() == (
        "a246b088fc3c7465cd61f16e95533ff9ede12bb4cb860f7271137325bfb0120b"
    )
    assert space.read("seen_floor") == 10
    assert space.read("seen_recent") == list(range(12, 512))
    assert (space.read("duplicates_dropped"), space.read("events_processed")) == (37, 510)
    window = space.read("seen_recent")
    # The lost event turns up after all: the whole window compacts.
    assert app.process_event(event(11))
    assert (space.read("seen_floor"), space.read("seen_recent")) == (511, [])
    assert window == list(range(12, 512))  # a window read earlier is not changed
    assert not app.process_event(event(300))
    assert app.process_event(event(512))
    assert (space.read("seen_floor"), space.read("seen_recent")) == (512, [])


def test_state_vars_all_designated():
    world, app = make_calltrack()
    checkpoint = app.api.ftim.capture()
    assert set(checkpoint.image["globals"]) == set(STATE_VARS)


def test_render_histogram_is_pinned():
    """The display string, pinned from the nested-format-spec rendering."""
    world, app = make_calltrack()
    for sequence, busy in enumerate([0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 5, 5, 1], start=1):
        app.process_event(event(sequence, kind="start", busy=busy))
    assert app.render_histogram() == (
        "Busy-line histogram (13 events)\n"
        "0 busy |###                                     | 1\n"
        "1 busy |#########                               | 3\n"
        "2 busy |#########                               | 3\n"
        "3 busy |############                            | 4\n"
        "4 busy |                                        | 0\n"
        "5 busy |######                                  | 2"
    )
    assert app.render_histogram(width=7) == (
        "Busy-line histogram (13 events)\n"
        "0 busy |#      | 1\n"
        "1 busy |##     | 3\n"
        "2 busy |##     | 3\n"
        "3 busy |##     | 4\n"
        "4 busy |       | 0\n"
        "5 busy |#      | 2"
    )
