"""The stream the chaos and cluster suites share, the counts every
accepted answer over it must match, and a proxy schedule that logs the
type of every frame it relays."""

from repro.service import BlackoutSchedule

U = 64
UPDATES = [(i % U, 1 + i % 3) for i in range(40)]
#: a_i after :data:`UPDATES`.
COUNTS = [sum(delta for key, delta in UPDATES if key == i) for i in range(U)]


class FrameLog(BlackoutSchedule):
    """Records each frame's type by the proxy's global index.  Unarmed it
    passes every frame; armed, it is a node-death switch."""

    def __init__(self):
        super().__init__()
        self.types = []

    def decide(self, direction, index, global_index, frame_type):
        self.types.append(frame_type)
        return super().decide(direction, index, global_index, frame_type)
