"""Reference durable-record writers (one ``json.dumps`` pass per CRC).

These are the original encoders of the three durable formats, preserved
when :meth:`repro.core.wal.WriteAheadLog.append`,
:func:`repro.core.wal.write_checkpoint` and the job journal's
``_frame`` were rewritten to encode each record once.  Each builds the
record as a dict, CRCs its sorted-key JSON with :func:`_crc`, and
serializes it again for the file.  They are the byte-identity oracle of
``tests/core/test_durable_bytes.py``: the product writers must produce
exactly these bytes for the same inputs.

Do not use these in new code; they encode every record twice.
"""

from __future__ import annotations

import base64
import io
import json

import numpy as np

from repro.core.endpoints import Pin
from repro.core.wal import CKPT_VERSION, _crc, _replay_legal_pips
from repro.device.fabric import PipEvent

__all__ = ["wal_line", "checkpoint_text", "journal_frame"]


def wal_line(seq: int, event: PipEvent) -> str:
    """The WAL line ``WriteAheadLog.append`` writes for ``event``."""
    on, rec = event
    payload = {
        "seq": seq,
        "on": bool(on),
        "row": rec.row,
        "col": rec.col,
        "from": rec.from_name,
        "to": rec.to_name,
    }
    payload["crc"] = _crc(payload)
    return json.dumps(payload, sort_keys=True) + "\n"


def checkpoint_text(device, *, seq: int, netdb=None, memory=None) -> str:
    """The file contents ``write_checkpoint`` writes for this session."""
    nets = {}
    if netdb is not None:
        for src, sinks in netdb.net_sinks.items():
            ep = netdb.net_source_ep.get(src)
            if isinstance(ep, Pin):
                ep_ser = [ep.row, ep.col, ep.wire]
            else:
                ep_ser = None
            nets[str(src)] = {"sinks": sorted(sinks), "ep": ep_ser}
    body: dict = {
        "ckpt": CKPT_VERSION,
        "part": device.arch.part.name,
        "seq": seq,
        "pips": _replay_legal_pips(device),
        "nets": nets,
    }
    if memory is not None:
        packed = np.packbits(memory.bits)
        body["memory"] = {
            "n_bits": int(len(memory.bits)),
            "b64": base64.b64encode(packed.tobytes()).decode("ascii"),
            "dirty": sorted(memory.dirty_frames),
        }
    body["crc"] = _crc(body)
    out = io.StringIO()
    json.dump(body, out)
    return out.getvalue()


def journal_frame(payload: dict) -> str:
    """The job-journal line framing ``payload``."""
    frame = dict(payload)
    frame["crc"] = _crc(payload)
    return json.dumps(frame, sort_keys=True) + "\n"
