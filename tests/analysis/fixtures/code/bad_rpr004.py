"""Seeded RPR004: search loops a deadline cannot bound."""


def drain(heap, deadline):
    # seeded 1: nothing in the loop polls the deadline
    while heap:
        heap.pop()


def settle(queue, deadline):
    if deadline is not None:
        deadline.poll()
    # seeded 2: a poll before the loop does not bound it
    while True:
        if not queue:
            return
        queue.pop()
