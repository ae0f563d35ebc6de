"""REP009 corpus: a metric site with no array-path counterpart.

Only ``sim/engine.py`` (the object root) calls ``feed_round``, so the
``observe_phase_event`` registry feed is reachable on exactly one
engine path — an operator watching the registry would see phase
counters under one engine and nothing under the other.  Expected: 1
REP009 violation, reported here.
"""

from sim.observe import observe_phase_event


class ObjectOnlyMetrics:
    def __init__(self, registry):
        self.registry = registry

    def feed_round(self, event):
        observe_phase_event(self.registry, event)
