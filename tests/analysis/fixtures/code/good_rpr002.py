"""Twin of bad_rpr002: every mutation holds the module's lock."""

import threading

_LOCK = threading.Lock()
_HITS = {}
_EVENTS = []


def hit(key):
    with _LOCK:
        _HITS[key] = _HITS.get(key, 0) + 1


def log(event):
    with _LOCK:
        _EVENTS.append(event)
