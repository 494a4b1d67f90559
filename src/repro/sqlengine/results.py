"""Result sets — the engine's analogue of Sybase's Tabular Data Stream.

A single batch of SQL can produce several result sets (each SELECT yields
one) plus informational messages (``print`` output, ``syb_sendmsg`` status,
row counts).  :class:`BatchResult` bundles everything a client receives for
one ``execute`` call; the gateway forwards these objects unmodified, which
is what makes the mediator transparent (E-FIG1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import format_datetime


@dataclass(slots=True)
class ResultSet:
    """One tabular result: ordered column names and rows of Python values
    (a SELECT's rows are tuples: one object per row to build and free).
    Slotted, like :class:`BatchResult`: a reply is built and freed once
    per client command, and no attribute dict is allocated for either."""

    columns: list[str]
    rows: list[tuple | list] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column_index(self, name: str) -> int:
        """Index of a column by case-insensitive name."""
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.lower() == lowered:
                return index
        raise KeyError(name)

    def column_values(self, name: str) -> list[object]:
        """All values of one column, in row order."""
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> list[dict[str, object]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> object:
        """The single value of a 1x1 result (raises if not 1x1)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ValueError(
                f"expected a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def format_table(self) -> str:
        """Pretty-print as an aligned text table (for examples/benches)."""
        rendered = [[_render(value) for value in row] for row in self.rows]
        widths = [len(name) for name in self.columns]
        for row in rendered:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        header = "  ".join(
            name.ljust(widths[index]) for index, name in enumerate(self.columns)
        )
        rule = "  ".join("-" * width for width in widths)
        body = [
            "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
            for row in rendered
        ]
        return "\n".join([header, rule, *body])


def _render(value: object) -> str:
    if value is None:
        return "NULL"
    import datetime as _dt

    if isinstance(value, _dt.datetime):
        return format_datetime(value)
    return str(value)


@dataclass(slots=True)
class BatchResult:
    """Everything returned for one executed batch.

    Attributes:
        result_sets: tabular results, in statement order.
        messages: informational messages (``print`` output etc.), in order.
        rowcount: rows affected by the last DML statement in the batch.
    """

    result_sets: list[ResultSet] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)
    rowcount: int = 0

    @property
    def last(self) -> ResultSet | None:
        """The final result set of the batch, if any."""
        return self.result_sets[-1] if self.result_sets else None

    def merge(self, other: "BatchResult") -> None:
        """Append another batch's output (used when procedures nest)."""
        self.result_sets.extend(other.result_sets)
        self.messages.extend(other.messages)
        self.rowcount = other.rowcount

    def format(self) -> str:
        """Render messages and result sets the way a CLI client would."""
        parts: list[str] = list(self.messages)
        parts.extend(result.format_table() for result in self.result_sets)
        return "\n".join(parts)
