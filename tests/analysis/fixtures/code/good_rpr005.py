"""Twin of bad_rpr005: the module owns the segment's cleanup."""

from multiprocessing import shared_memory


class Table:
    def __init__(self, n):
        self.seg = shared_memory.SharedMemory(create=True, size=n)

    def close(self):
        self.seg.close()
        self.seg.unlink()
