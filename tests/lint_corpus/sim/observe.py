"""Corpus support: the observable-surface stand-ins shared by the
REP007-REP009 fixtures (a PhaseEvent/sink pair, a network with the
``plan_delivery``/``plan_delivery_block`` pair, and a compose hook).
Clean by construction — every violation lives in a ``rep*_bad.py``.
"""


class PhaseEvent:
    def __init__(self, kind, member, round_number, phase):
        self.kind = kind
        self.member = member
        self.round_number = round_number
        self.phase = phase


class PhaseSink:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class Net:
    def plan_delivery(self, message):
        return message

    def plan_delivery_block(self, payloads):
        return payloads


class Registry:
    def __init__(self):
        self.fed = []


def observe_phase_event(registry, event):
    registry.fed.append(("phase", event))


def check_compose(member, value):
    return value
