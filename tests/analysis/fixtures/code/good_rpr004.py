"""Twin of bad_rpr004: each loop polls, directly or through a helper."""


class Search:
    def __init__(self, deadline):
        self._deadline = deadline

    def _should_stop(self):
        return self._deadline is not None and self._deadline.expired()

    def drain(self, heap, deadline):
        while heap:
            if self._should_stop():
                return
            heap.pop()


def settle(queue, deadline):
    while True:
        if deadline is not None:
            deadline.poll()
        if not queue:
            return
        queue.pop()
