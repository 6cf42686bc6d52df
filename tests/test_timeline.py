"""Timeline tests: the ordering contract the kernel relies on.

Fixed-seed fingerprints depend on pop order being exactly tuple order
over ``(time, priority, eid, event)``: same-time FIFO by ``eid``, urgent
before normal, and nothing skipped or reordered by cancellation.
"""

import random

from repro.simkernel.core import Environment, NORMAL, URGENT
from repro.simkernel.timeline import Timeline


def drain(timeline):
    """Pop everything, returning the entries in pop order."""
    out = []
    while True:
        entry = timeline.pop()
        if entry is None:
            return out
        out.append(entry)


class TestSameTickFifo:
    def test_ties_pop_in_eid_order(self):
        """Same (time, priority) entries pop FIFO by insertion id."""
        tl = Timeline()
        entries = [(0.5, NORMAL, eid, object()) for eid in range(32)]
        shuffled = entries[:]
        random.Random(7).shuffle(shuffled)
        # eids are assigned at push time in the kernel, so push in eid
        # order (shuffling the *objects* but keeping eid monotone).
        for entry in sorted(shuffled, key=lambda e: e[2]):
            tl.push(entry)
        assert drain(tl) == entries

    def test_urgent_overtakes_pending_normal_same_time(self):
        """An urgent push while draining lands before queued normal
        entries of the same time."""
        tl = Timeline()
        normals = [(0.25, NORMAL, eid, "n") for eid in range(4)]
        for entry in normals:
            tl.push(entry)
        first = tl.pop()
        assert first == normals[0]
        urgent = (0.25, URGENT, 99, "u")
        tl.push(urgent)
        assert tl.pop() == urgent
        assert drain(tl) == normals[1:]

    def test_priority_orders_within_tick(self):
        tl = Timeline()
        a = (0.5, URGENT, 1, "a")
        b = (0.5, NORMAL, 0, "b")
        tl.push(b)
        tl.push(a)
        assert drain(tl) == [a, b]

    def test_len_and_bool(self):
        tl = Timeline()
        assert not tl and len(tl) == 0
        tl.push((0.0, NORMAL, 0, None))
        tl.push((5.0, NORMAL, 1, None))
        assert tl and len(tl) == 2
        tl.pop()
        assert len(tl) == 1
        tl.pop()
        assert tl.pop() is None and len(tl) == 0


class TestCancellation:
    def test_interrupt_orphans_timeout_without_reordering(self):
        """Interrupting a process leaves its timeout in the queue; the
        orphaned entry fires with no callbacks and the clock still
        advances through it in order."""
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.timeout(10.0)
                log.append(("woke", env.now))
            except Exception:
                log.append(("interrupted", env.now))
                yield env.timeout(0.5)
                log.append(("resumed", env.now))

        def other():
            yield env.timeout(3.0)
            log.append(("other", env.now))

        proc = env.process(sleeper())
        env.process(other())

        def interrupter():
            yield env.timeout(1.0)
            proc.interrupt("stop")

        env.process(interrupter())
        env.run(until=20.0)
        assert log == [
            ("interrupted", 1.0),
            ("resumed", 1.5),
            ("other", 3.0),
        ]
        assert env.now == 20.0

    def test_processed_events_pop_as_inert_entries(self):
        """A popped entry whose event was already processed (callbacks
        None) is simply inert — the timeline itself never skips or
        reorders anything."""
        tl = Timeline()
        sentinel = object()
        entries = [(float(i), NORMAL, i, sentinel) for i in range(5)]
        for entry in entries:
            tl.push(entry)
        assert drain(tl) == entries


class TestFarFuture:
    def test_far_future_entry_pushed_first_pops_last(self):
        tl = Timeline()
        now = 2.0
        far = (now + 1e6, NORMAL, 0, None)
        tl.push(far)
        near = [(now + 0.001 * i, NORMAL, i, None) for i in range(1, 6)]
        for entry in reversed(near):
            tl.push(entry)
        assert drain(tl) == near + [far]
        assert tl.pop() is None
