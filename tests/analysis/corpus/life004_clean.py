"""Clean twin of life004: stop() unsubscribes on the same receiver."""


class LiveView:
    def __init__(self, queue):
        self.queue = queue
        self.count = 0

    def attach(self):
        self.queue.subscribe(self._on_message)

    def stop(self):
        self.queue.unsubscribe(self._on_message)

    def _on_message(self, message):
        self.count += 1
