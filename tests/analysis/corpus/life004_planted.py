"""Planted LIFE004: queue subscription never released on teardown."""


class LiveView:
    def __init__(self, queue):
        self.queue = queue
        self.count = 0

    def attach(self):
        self.queue.subscribe(self._on_message)  # expect: LIFE004

    def stop(self):
        self.count = 0  # detaches nothing

    def _on_message(self, message):
        self.count += 1
