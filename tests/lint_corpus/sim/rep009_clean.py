"""REP009 clean twin: every observable site class is paired.

``phase_enter`` and the ``check_compose`` hook are reachable from both
engine roots, and the network-planning class is satisfied by
``plan_delivery`` on the object path and ``plan_delivery_block`` on
the array path — the pairing is per equivalence class, not per call
name.  Expected: 0 violations.
"""

from sim.observe import Net, PhaseEvent, check_compose


class PairedEmitter:
    def __init__(self, sink):
        self.sink = sink

    def emit_enter(self, member, round_number):
        event = PhaseEvent("phase_enter", member, round_number, 1)
        self.sink.emit(event)

    def object_plan(self, net: Net, member):
        checked = check_compose(member, member)
        return net.plan_delivery(checked)

    def array_plan(self, net: Net, members):
        checked = [check_compose(member, member) for member in members]
        return net.plan_delivery_block(checked)
