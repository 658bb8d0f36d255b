"""Seeded RPR002: module globals mutated with no lock held."""

import threading

_LOCK = threading.Lock()
_HITS = {}
_EVENTS = []


def hit(key):
    # seeded 1: item assignment off the lock
    _HITS[key] = _HITS.get(key, 0) + 1


def log(event):
    # seeded 2: a mutator call off the lock
    _EVENTS.append(event)


def guarded_log(event):
    with _LOCK:
        _EVENTS.append(event)
