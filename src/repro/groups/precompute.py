"""Fixed-base exponentiation tables (windowed precomputation).

The OCBE registration path exponentiates the *same* two Pedersen bases
``g`` and ``h`` thousands of times per join wave (one commitment per
attribute bit, one envelope component per bit position), and the Schnorr
signer exponentiates the group generator once per token.  A classic
windowed fixed-base table turns each of those exponentiations from
``~1.5 * bits`` group operations (double-and-add) into ``~bits / w``
additions with **zero doublings**, because every power of two the
double-and-add ladder would reach is precomputed once:

    table[i][j - 1] = base ** (j * 2**(w * i))      j in 1 .. 2**w - 1

``pow(e)`` then splits ``e`` into ``w``-bit digits and multiplies the
matching table entry per nonzero digit.  For the default 192-bit curve
with ``w = 5`` that is ~39 additions instead of ~280 mixed operations,
a 5-7x speedup before any native-backend gains.

Tables are **deterministic** (a pure function of the base point and the
window size), hold only *public* bases -- never secrets, blindings, or
per-session state -- and are **never serialized**: recovery rebuilds
them from the group parameters, and :meth:`FixedBaseTable.__reduce__`
enforces that invariant by refusing to pickle.

For elliptic-curve groups the accumulation runs in Jacobian coordinates
with mixed (affine-table) additions, in the group's one accumulator loop
(``EllipticCurveGroup._jac_walk``) rather than through
``ECPoint.__mul__``: table rows are affine (``Z = 1``), which saves four
field multiplications per addition, and no Python call is made per
addition.

Two helpers for the bitwise OCBE protocols share that loop.
:func:`same_base_powers` computes the receiver's ``l`` powers of one
ephemeral base from a single doubling chain -- a table that lives for
one call and holds nothing after it -- and :func:`recombines_to` runs
the sender's ``prod c_i^{2^i}`` check without a single inversion.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.groups._native import mpz
from repro.groups.base import CyclicGroup, GroupElement
from repro.groups.elliptic import ECPoint, naf_digits

__all__ = [
    "FixedBaseTable",
    "fixed_base_table",
    "generator_table",
    "recombines_to",
    "same_base_powers",
    "window_size",
]


def window_size(order_bits: int) -> int:
    """Window width for a given exponent size.

    Wider windows trade table build time and memory for fewer additions
    per exponentiation; the break-even favors ``w = 5`` once exponents
    reach real cryptographic sizes.  Tiny (toy/test) orders get narrow
    windows so the table does not dwarf the group itself.
    """
    if order_bits >= 192:
        return 5
    if order_bits >= 96:
        return 4
    return 3


class FixedBaseTable:
    """Windowed fixed-base table for one public base element.

    Build cost is ``~(2**w) * ceil(bits / w)`` group operations, paid
    once per (base, process); every subsequent :meth:`pow` costs at most
    ``ceil(bits / w)`` group additions.
    """

    __slots__ = ("base", "window", "_rows", "_mask", "_ec_rows", "_order")

    def __init__(self, base: GroupElement, window: Optional[int] = None):
        group = base.group
        self._order = group.order
        bits = self._order.bit_length()
        self.window = window if window is not None else window_size(bits)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        self.base = base
        self._mask = (1 << self.window) - 1
        self._rows = None
        self._ec_rows = None
        if base.is_identity():
            return  # every power is the identity; pow short-circuits
        if isinstance(base, ECPoint):
            # EC fast path: build in Jacobian coordinates with a single
            # Montgomery batch inversion, store affine rows pre-wrapped
            # for the native backend.  An entry that is the identity
            # (only on orders <= 2**w) is stored as None and adds nothing.
            self._ec_rows = self._build_ec(base, base.group, bits)
        else:
            self._rows = self._build_generic(base, bits)

    def _build_generic(self, base: GroupElement, bits: int) -> List[List[GroupElement]]:
        rows: List[List[GroupElement]] = []
        span = 1 << self.window
        start = base  # base ** (2 ** (window * i))
        for _ in range((bits + self.window - 1) // self.window):
            row = [start]
            acc = start
            for _ in range(2, span):
                acc = acc * start
                row.append(acc)
            rows.append(row)
            start = row[-1] * start  # base ** (span * 2**(w*i))
        return rows

    def _build_ec(self, base: ECPoint, group, bits: int) -> List[List[Tuple]]:
        span = 1 << self.window
        jac: List[Tuple] = []
        start = (mpz(base.xy[0]), mpz(base.xy[1]), mpz(1))
        for _ in range((bits + self.window - 1) // self.window):
            jac.append(start)
            acc = start
            for _ in range(2, span):
                acc = group._jac_add(acc, start)
                jac.append(acc)
            for _ in range(self.window):  # start *= 2**window
                start = group._jac_double(start)
        # One modular inversion for the whole table, not one per entry.
        affine = group._jac_batch_to_affine(jac)
        entries_per_row = span - 1
        return [
            affine[i : i + entries_per_row]
            for i in range(0, len(affine), entries_per_row)
        ]

    def pow(self, exponent: int) -> GroupElement:
        """``base ** exponent`` (exponent reduced mod the group order)."""
        e = exponent % self._order
        if e == 0 or (self._rows is None and self._ec_rows is None):
            return self.base.group.identity()
        if self._ec_rows is not None:
            return self._pow_ec(e)
        acc: Optional[GroupElement] = None
        i = 0
        w = self.window
        mask = self._mask
        rows = self._rows
        while e:
            digit = e & mask
            if digit:
                entry = rows[i][digit - 1]
                acc = entry if acc is None else acc * entry
            e >>= w
            i += 1
        return acc if acc is not None else self.base.group.identity()

    def _pow_ec(self, e: int) -> ECPoint:
        """One mixed addition of an affine table entry per nonzero
        digit, no doublings (:meth:`EllipticCurveGroup._jac_walk`)."""
        group = self.base.group
        rows = self._ec_rows
        w = self.window
        mask = self._mask
        steps = []
        i = 0
        while e:
            digit = e & mask
            if digit:
                steps.append((0, rows[i][digit - 1]))
            e >>= w
            i += 1
        return ECPoint(group, group._jac_to_affine(group._jac_walk(steps)))

    def __reduce__(self):
        raise TypeError(
            "FixedBaseTable is never serialized; rebuild it from the "
            "group parameters after recovery"
        )

    def __repr__(self) -> str:
        return "FixedBaseTable(group=%s, window=%d)" % (
            self.base.group.name,
            self.window,
        )


def fixed_base_table(
    base: GroupElement, window: Optional[int] = None
) -> FixedBaseTable:
    """Build a :class:`FixedBaseTable` for ``base``."""
    return FixedBaseTable(base, window=window)


# One table per (group, base bytes) per process.  Groups from the
# params registry are cached singletons and hashable, so this cache is
# shared by every PedersenParams / Schnorr key pair over the same
# group -- the build cost is paid once, not once per protocol object.
_SHARED: dict = {}


def shared_table(base: GroupElement) -> FixedBaseTable:
    """Process-wide cached table for a public base (e.g. a generator)."""
    key: Tuple[CyclicGroup, bytes] = (base.group, base.to_bytes())
    table = _SHARED.get(key)
    if table is None:
        table = FixedBaseTable(base)
        _SHARED[key] = table
    return table


def generator_table(group: CyclicGroup) -> FixedBaseTable:
    """Process-wide cached table for the group's canonical generator."""
    return shared_table(group.generator())


def same_base_powers(
    base: GroupElement, exponents: Sequence[int]
) -> List[GroupElement]:
    """``[base ** e for e in exponents]``, sharing one doubling chain.

    On a curve the chain ``2**k * base`` (``k`` up to the order's bit
    length) is built once and batch-normalised with one inversion; each
    power is then the sum of ``+-chain[k]`` over the width-2 NAF digits of
    its exponent -- about ``bits / 3`` mixed additions and no doublings --
    and all the sums share one more batch inversion.  Other groups
    exponentiate one by one.
    """
    if not exponents or not isinstance(base, ECPoint) or base.is_identity():
        return [base ** e for e in exponents]
    group = base.group
    n = group.order
    p = group._pn
    jac = [(mpz(base.xy[0]), mpz(base.xy[1]), mpz(1))]
    for _ in range(n.bit_length()):  # the NAF of e < n has <= bits + 1 digits
        jac.append(group._jac_double(jac[-1]))
    chain = group._jac_batch_to_affine(jac)
    negated = [None if xy is None else (xy[0], -xy[1] % p) for xy in chain]
    sums = [
        group._jac_walk(
            (0, chain[k] if digit > 0 else negated[k])
            for k, digit in naf_digits(e % n, 2)
        )
        for e in exponents
    ]
    return [
        ECPoint(group, None if xy is None else (int(xy[0]), int(xy[1])))
        for xy in group._jac_batch_to_affine(sums)
    ]


def recombines_to(elements: Sequence[GroupElement], target: GroupElement) -> bool:
    """Whether ``prod elements[i] ** (2**i) == target`` (``elements``
    non-empty), by Horner's rule from the last element down.

    On a curve the accumulator stays in Jacobian coordinates -- one
    doubling and one mixed addition per element -- and is compared with
    the affine target projectively (``X == x Z**2``, ``Y == y Z**3``), so
    the check costs no inversion.  Other groups, and elements from more
    than one group, go through the group operation.
    """
    group = target.group
    if not (
        isinstance(target, ECPoint)
        and all(isinstance(c, ECPoint) and c.group == group for c in elements)
    ):
        acc = elements[-1]
        for element in reversed(elements[:-1]):
            acc = acc * acc * element
        return acc == target
    # Doubling the initial identity is a no-op, so every step may double.
    x, y, z = group._jac_walk((1, c.xy) for c in reversed(elements))
    if target.xy is None or not z:
        return target.xy is None and not z
    p = group._pn
    tx, ty = target.xy
    zz = z * z % p
    return x == tx * zz % p and y == ty * zz * z % p
