"""Timing wrappers around the public entry points of each ``repro`` layer.

Nothing under ``src/`` knows about this file.  A :class:`Tracer` patches
the entry points listed in :data:`SPAN_TARGETS` (methods on their
defining class, module-level functions in every ``repro`` module that
imported them by name), keeps one span per call in memory -- name,
start, end, parent -- and removes every patch again on :meth:`remove`.
Spans are recorded only while :attr:`Tracer.on` is set, i.e. inside the
harness's timed operations, and only on the harness thread.

A layer's ``*_busy_s`` is *self* time: the span's duration minus the
part covered by its child spans.  Every timed operation is itself the
root span ``harness.op``, so the self times of all names sum to the
traced window wall exactly; ``harness.op``'s own self time is what no
wrapped layer explains (``harness.unattributed_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

OP_SPAN = "harness.op"

#: (span name, module, class name or None for a module-level function,
#: attribute).  A method is patched on the class of the MRO that defines
#: it, so naming a public subclass reaches a shared private base.
SPAN_TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("mathx.null_space", "repro.mathx.linalg", "Matrix", "null_space"),
    ("mathx.null_space", "repro.mathx.linalg", "RrefFactorization", "null_space"),
    ("mathx.rref_extend", "repro.mathx.linalg", "RrefFactorization", "from_matrix"),
    ("mathx.rref_extend", "repro.mathx.linalg", "RrefFactorization", "extend_row"),
    ("mathx.rref_extend", "repro.mathx.linalg", "RrefFactorization", "extend_column"),
    ("groups.pow", "repro.groups.elliptic", "ECPoint", "__pow__"),
    ("groups.fixed_pow", "repro.groups.precompute", "FixedBaseTable", "pow"),
    ("crypto.commit", "repro.crypto.pedersen", "PedersenParams", "commit"),
    ("crypto.sig_sign", "repro.crypto.schnorr_sig", "SchnorrKeyPair", "sign"),
    ("crypto.sig_verify", "repro.crypto.schnorr_sig", "SchnorrKeyPair", "verify"),
    ("crypto.sig_verify", "repro.crypto.schnorr_sig", None, "verify"),
    ("crypto.encrypt", "repro.crypto.symmetric", "AesCtrHmacCipher", "encrypt"),
    ("crypto.decrypt", "repro.crypto.symmetric", "AesCtrHmacCipher", "decrypt"),
    ("crypto.encrypt", "repro.crypto.symmetric", "HashStreamCipher", "encrypt"),
    ("crypto.decrypt", "repro.crypto.symmetric", "HashStreamCipher", "decrypt"),
    ("ocbe.compose", "repro.ocbe.eq", "EqOCBESender", "compose"),
    ("ocbe.compose", "repro.ocbe.eq", "EqOCBESender", "compose_with"),
    ("ocbe.compose", "repro.ocbe.ge", "GeOCBESender", "compose"),
    ("ocbe.compose", "repro.ocbe.ge", "GeOCBESender", "compose_with"),
    ("ocbe.compose", "repro.ocbe.derived", "NeOCBESender", "compose"),
    ("ocbe.compose", "repro.ocbe.derived", "NeOCBESender", "compose_with"),
    ("ocbe.commit_msg", "repro.ocbe.eq", "EqOCBEReceiver", "commitment_message"),
    ("ocbe.commit_msg", "repro.ocbe.ge", "GeOCBEReceiver", "commitment_message"),
    ("ocbe.commit_msg", "repro.ocbe.derived", "NeOCBEReceiver", "commitment_message"),
    ("ocbe.open", "repro.ocbe.eq", "EqOCBEReceiver", "open"),
    ("ocbe.open", "repro.ocbe.ge", "GeOCBEReceiver", "open"),
    ("ocbe.open", "repro.ocbe.derived", "NeOCBEReceiver", "open"),
    ("gkm.build", "repro.gkm.strategy", "DenseGkmStrategy", "build"),
    ("gkm.build", "repro.gkm.strategy", "BucketedGkmStrategy", "build"),
    ("gkm.derive", "repro.gkm.acv", "AcvBgkm", "derive"),
    ("gkm.kev", "repro.gkm.acv", "AcvBgkm", "key_extraction_vector"),
    ("documents.segment", "repro.documents.segmentation", None, "segment"),
    ("wire.encode", "repro.wire.messages", "WireMessage", "encode"),
    ("wire.decode", "repro.wire.messages", None, "decode_message"),
    ("wire.session", "repro.wire.sessions", "PublisherRegistrationSession", "handle"),
    ("wire.session", "repro.wire.sessions", "SubscriberRegistrationSession", "handle"),
    ("wire.session", "repro.wire.sessions", "SubscriberRegistrationSession",
     "handle_message"),
    ("system.publish", "repro.system.publisher", "Publisher", "publish"),
    ("system.receive", "repro.system.subscriber", "Subscriber", "receive"),
    ("system.pump", "repro.system.service", "DisseminationService", "pump"),
    ("system.open_registration", "repro.system.publisher", "Publisher",
     "open_registration"),
    ("system.issue_token", "repro.system.idmgr", "IdentityManager", "begin_issue"),
    ("system.issue_token", "repro.system.idmgr", "IdentityManager", "finish_issue"),
    ("system.issue_token", "repro.system.idmgr", "IdentityManager", "issue_token"),
    ("system.rows", "repro.system.css", "CssTable", "rows_for_policies"),
    ("store.wal_append", "repro.store.wal", "WriteAheadLog", "append"),
    ("net.broadcast", "repro.net.transport", "TcpTransport", "broadcast"),
    ("net.poll", "repro.net.transport", "TcpTransport", "poll"),
)

#: Entry points that are only counted: a span per call would cost more
#: than the call (``modinv``) or say nothing more than the count.
COUNT_TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("mathx.modinv_calls", "repro.mathx.modular", None, "modinv"),
    ("crypto.aes_key_setups", "repro.crypto.aes", "AES", "__init__"),
)

_BROADCAST_KIND = "broadcast-package"


# -- what a finished call adds to the counters -------------------------------
# hook(tracer, span, args, result, ok); ``span`` is [name, start, end, parent].


def _after_encrypt(tracer, span, args, result, ok):
    tracer.counts["crypto.cipher_bytes"] += len(args[2])


def _after_decrypt(tracer, span, args, result, ok):
    tracer.counts["crypto.cipher_bytes"] += len(args[2])
    tracer.counts["crypto.decrypts"] += 1
    tracer.counts["crypto.decrypts_ok"] += ok


def _after_open(tracer, span, args, result, ok):
    tracer.counts["ocbe.opens_ok"] += ok


def _after_encode(tracer, span, args, result, ok):
    if ok:
        tracer.counts["wire.frame_bytes"] += len(result)


def _after_wal_append(tracer, span, args, result, ok):
    tracer.counts["store.wal_bytes"] += len(args[2])


def _after_publish(tracer, span, args, result, ok):
    if ok:
        tracer.packages.append(result)


def _after_broadcast(tracer, span, args, result, ok):
    tracer.last_broadcast = span[1]


def _after_poll(tracer, span, args, result, ok):
    if not result:
        tracer.counts["net.polls_empty"] += 1
        return
    for delivery in result:
        if delivery.kind == _BROADCAST_KIND:
            side = "relay" if args[1] in tracer.relay_members else "root"
            tracer.transits[side].append(span[2] - tracer.last_broadcast)


_HOOKS: Dict[str, Callable] = {
    "crypto.encrypt": _after_encrypt,
    "crypto.decrypt": _after_decrypt,
    "ocbe.open": _after_open,
    "wire.encode": _after_encode,
    "store.wal_append": _after_wal_append,
    "system.publish": _after_publish,
    "net.broadcast": _after_broadcast,
    "net.poll": _after_poll,
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` per call, in start order.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: ``TcpTransport.broadcast`` call -> the delivery first returned
        #: by ``poll``, per member, split by attach point.
        self.transits: Dict[str, List[float]] = {"root": [], "relay": []}
        #: Pseudonyms attached behind the relay (set by the workload).
        self.relay_members: frozenset = frozenset()
        self.packages: list = []
        self.last_broadcast = 0.0
        self.on = False
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin_op(self) -> None:
        """Open the root span of one timed operation and start recording."""
        self._open(OP_SPAN)
        self.on = True

    def end_op(self) -> None:
        self.on = False
        self._close()

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _timed(self, name: str, func: Callable) -> Callable:
        hook = _HOOKS.get(name)
        get_ident = threading.get_ident

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.on or get_ident() != self._thread:
                return func(*args, **kwargs)
            span = self._open(name)
            result, ok = None, False
            try:
                result = func(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close()
                if hook is not None:
                    hook(self, span, args, result, ok)

        return wrapper

    def _counted(self, name: str, func: Callable) -> Callable:
        counts = self.counts
        get_ident = threading.get_ident

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.on and get_ident() == self._thread:
                counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every target; a no-op for targets already patched."""
        for targets, wrap in ((SPAN_TARGETS, self._timed),
                              (COUNT_TARGETS, self._counted)):
            for name, module_name, class_name, attr in targets:
                module = importlib.import_module(module_name)
                if class_name is None:
                    self._patch_function(module, attr, name, wrap)
                else:
                    self._patch_method(getattr(module, class_name), attr, name, wrap)

    def _patch_method(self, cls, attr: str, name: str, wrap) -> None:
        owner = next(c for c in cls.__mro__ if attr in c.__dict__)
        raw = owner.__dict__[attr]
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return  # two public subclasses share this base method
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(wrap(name, raw.__func__))
        else:
            patched = wrap(name, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def _patch_function(self, module, attr: str, name: str, wrap) -> None:
        original = getattr(module, attr)
        patched = wrap(name, original)
        # ``from x import f`` copies the binding: rebind every importer.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, patched)

    def remove(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``(busy seconds, calls)`` per span name.

        A call nested in a span of the same name (``compose`` ->
        ``compose_with``) adds self time but is not a second call.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        busy: Dict[str, float] = Counter()
        calls: Dict[str, int] = Counter()
        for index, (name, start, end, parent) in enumerate(spans):
            busy[name] += (end - start) - children[index]
            if parent < 0 or spans[parent][0] != name:
                calls[name] += 1
        return busy, calls

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent}
                ) + "\n")
