"""Seeded RPR005: segments that escape a module that never unlinks."""

from multiprocessing import shared_memory


class Table:
    def __init__(self, n):
        # seeded 1: stored on the object, never unlinked anywhere
        self.seg = shared_memory.SharedMemory(create=True, size=n)


def publish(n):
    # seeded 2: handed to the caller, never unlinked anywhere
    return shared_memory.SharedMemory(create=True, size=n)
