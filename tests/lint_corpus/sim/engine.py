"""Corpus support: the *object-path* engine root.

``repro.lint.graph_rules.ENGINE_PATHS`` matches roots by dotted
suffix, so this corpus module (``sim.engine.SimulationEngine``) stands
in for the real ``repro.sim.engine`` — whatever it calls is
object-path-reachable for REP008/REP009.  Clean by construction.
"""

from sim.observe import Net, PhaseSink, Registry
from sim.rep008_bad import branchy_loss
from sim.rep008_clean import member_jitter, steady_loss
from sim.rep009_bad import ObjectOnlyEmitter
from sim.rep009_clean import PairedEmitter
from sim.rep009_metrics_bad import ObjectOnlyMetrics


class SimulationEngine:
    def __init__(self, rngs):
        self.rngs = rngs
        self.network = Net()
        self.sink = PhaseSink()
        self.registry = Registry()

    def run(self, members):
        paired = PairedEmitter(self.sink)
        lone = ObjectOnlyEmitter(self.sink)
        metrics = ObjectOnlyMetrics(self.registry)
        for member in members:
            paired.emit_enter(member, 0)
            paired.object_plan(self.network, member)
            lone.emit_finalize(member, 0)
            lone.guard_bump(self.network, member, 0)
            metrics.feed_round(member)
        self._step_processes(members)

    def _step_processes(self, members):
        steady_loss(self.rngs)
        branchy_loss(self.rngs, drop=False)
        for member in members:
            member_jitter(self.rngs, member)

    def _dispatch(self, message):
        return message

    def _submit(self, message):
        return message
