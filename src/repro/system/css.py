"""The CSS table ``T`` maintained by the publisher (Table I).

Rows are pseudonyms, columns are attribute-condition keys, cells are the
delivered conditional subscription secrets.  The table is the publisher's
*only* per-subscriber state and must be protected (Section V-B); all
broadcast keying material is derived from it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import GKMError

__all__ = ["CssTable"]


class CssTable:
    """nym x condition -> CSS bytes, with the queries the GKM layer needs."""

    def __init__(self) -> None:
        self._rows: Dict[str, Dict[str, bytes]] = {}

    # -- mutation (registration / revocation / update) ---------------------

    def set(self, nym: str, condition_key: str, css: bytes) -> None:
        """Insert or overwrite a CSS (overwrite = credential update)."""
        self._rows.setdefault(nym, {})[condition_key] = css

    def remove_cell(self, nym: str, condition_key: str) -> bool:
        """Credential revocation: drop one CSS.  Returns True if present."""
        row = self._rows.get(nym)
        if row and condition_key in row:
            del row[condition_key]
            if not row:
                del self._rows[nym]
            return True
        return False

    def remove_row(self, nym: str) -> bool:
        """Subscription revocation: drop a pseudonym entirely."""
        return self._rows.pop(nym, None) is not None

    # -- queries -----------------------------------------------------------

    def get(self, nym: str, condition_key: str) -> bytes:
        """The CSS for a cell; raises :class:`GKMError` when absent."""
        try:
            return self._rows[nym][condition_key]
        except KeyError:
            raise GKMError(
                "no CSS for nym=%r condition=%r" % (nym, condition_key)
            ) from None

    def has(self, nym: str, condition_key: str) -> bool:
        """Cell-presence test."""
        return condition_key in self._rows.get(nym, {})

    def secrets_of(self, nym: str, condition_key: Optional[str] = None) -> List[bytes]:
        """The CSS values a pseudonym holds (one cell's, if named)."""
        row = self._rows.get(nym, {})
        if condition_key is None:
            return list(row.values())
        return [row[condition_key]] if condition_key in row else []

    def pseudonyms(self) -> List[str]:
        """All pseudonyms with at least one CSS."""
        return sorted(self._rows)

    def rows_for_policies(
        self, policy_keys: Sequence[Sequence[str]]
    ) -> List[List[tuple]]:
        """The ACV matrix rows for *many* policies in one table pass.

        Returns one bucket per entry of ``policy_keys``: the ordered CSS
        tuples of every pseudonym holding a CSS for *all* of that policy's
        conditions, pseudonyms sorted -- the paper's ``SELECT * FROM T
        WHERE 'cond' <> NULL`` generalised to a conjunction (the set
        ``U_k`` of ``acp_k``), for every policy in one pass over the
        table.  This is the per-broadcast row
        setup of :meth:`repro.system.publisher.Publisher.publish`; under
        churn it runs after every membership change, so the constant
        factor matters.
        """
        buckets: List[List[tuple]] = [[] for _ in policy_keys]
        for nym in sorted(self._rows):
            row = self._rows[nym]
            for bucket, keys in zip(buckets, policy_keys):
                cells = []
                for key in keys:
                    css = row.get(key)
                    if css is None:
                        break
                    cells.append(css)
                else:
                    bucket.append(tuple(cells))
        return buckets

    def rows(self) -> tuple:
        """The full table as nested tuples (the snapshot encoding's view):
        ``((nym, ((condition_key, css), ...)), ...)``, sorted both ways."""
        return tuple(
            (nym, tuple(sorted(self._rows[nym].items())))
            for nym in self.pseudonyms()
        )

    def condition_keys(self) -> List[str]:
        """All condition keys appearing anywhere in the table."""
        keys: Set[str] = set()
        for row in self._rows.values():
            keys.update(row)
        return sorted(keys)

    def __len__(self) -> int:
        return len(self._rows)

    def cell_count(self) -> int:
        """Total number of stored CSSs."""
        return sum(len(row) for row in self._rows.values())

    # -- presentation ----------------------------------------------------------

    def render(self, condition_keys: Optional[Iterable[str]] = None) -> str:
        """An ASCII rendering in the style of the paper's Table I.

        CSS values are shown as short hex prefixes ("--" for absent cells).
        """
        keys = list(condition_keys) if condition_keys else self.condition_keys()
        header = ["nym"] + keys
        widths = [max(len(h), 10) for h in header]
        lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("-+-".join("-" * w for w in widths))
        for nym in self.pseudonyms():
            row = self._rows[nym]
            cells = [nym] + [
                row[k][:4].hex() if k in row else "--" for k in keys
            ]
            lines.append(" | ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)
