"""Corpus support: the *array-path* engine root (see ``sim/engine.py``
for the suffix-matching contract).  Deliberately does **not** call the
``rep009_bad`` sites — that one-sidedness is what REP009 flags.
Clean by construction.
"""

from sim.observe import Net, PhaseSink
from sim.rep008_bad import branchy_loss
from sim.rep008_clean import member_jitter, steady_loss
from sim.rep009_clean import PairedEmitter


class ArraySteppedEngine:
    def __init__(self, rngs):
        self.rngs = rngs
        self.network = Net()
        self.sink = PhaseSink()

    def run(self, members):
        paired = PairedEmitter(self.sink)
        for member in members:
            paired.emit_enter(member, 0)
        paired.array_plan(self.network, members)
        self._step_processes(members)

    def _step_processes(self, members):
        steady_loss(self.rngs)
        branchy_loss(self.rngs, drop=True)
        for member in members:
            member_jitter(self.rngs, member)
        self._deliver_due(members)

    def _deliver_due(self, members):
        return members

    def submit_block(self, payloads):
        return payloads
