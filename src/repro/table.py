"""Column schemas and the one block type every generator emits.

The engine's streaming, sharding, export and distributed layers move
blocks of equal-length float columns, whatever the columns mean: the
five host resources of the paper's model, or a scenario's availability,
lifetime, allocation-utility or bandwidth rows.  The table shape is a
value:

:class:`TableSchema`
    A frozen record of ``(labels, csv_fmt, csv_header)`` — everything the
    writer and the distributed wire need to render and verify a block.
:class:`ColumnBlock`
    A labelled block of equal-length float columns under a schema — the
    block protocol the engine relies on: ``schema``, ``__len__``,
    ``column``/``__getitem__``, ``to_matrix``, ``slice`` and
    ``classmethod concatenate``.  The dict-style access (``__iter__``,
    ``__contains__``, ``keys``) lets reducers' ``ColumnCache`` treat a
    block as a mapping without copies.
    :class:`~repro.hosts.population.HostPopulation` is the block of the
    host schema, :data:`~repro.hosts.population.HOST_SCHEMA`.

This module imports only numpy, so :mod:`repro.hosts.population` builds
on it without loading :mod:`repro.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _format_spec_count(fmt: str) -> int:
    """Number of ``%`` conversion specs in a printf-style row format."""
    return fmt.replace("%%", "").count("%")


@dataclass(frozen=True)
class TableSchema:
    """The column contract of one table family.

    ``labels`` orders the columns, ``csv_fmt`` renders one row and
    ``csv_header`` is written verbatim at the top of each CSV segment.
    Header tokens may differ from labels (the host header spells
    ``dhrystone_mips`` for the label ``dhrystone``) — only the column
    *count* must agree.
    """

    labels: "tuple[str, ...]"
    csv_fmt: str
    csv_header: str

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("schema labels must be non-empty")
        if len(set(labels)) != len(labels):
            raise ValueError(f"schema labels must be unique, got {labels}")
        if not all(isinstance(label, str) and label for label in labels):
            raise ValueError(f"schema labels must be non-empty strings: {labels}")
        if _format_spec_count(self.csv_fmt) != len(labels):
            raise ValueError(
                f"csv_fmt {self.csv_fmt!r} renders "
                f"{_format_spec_count(self.csv_fmt)} columns; schema has "
                f"{len(labels)}"
            )
        if not self.csv_header.endswith("\n"):
            raise ValueError("csv_header must end with a newline")
        header_columns = self.csv_header.strip("\n").split(",")
        if len(header_columns) != len(labels):
            raise ValueError(
                f"csv_header names {len(header_columns)} columns; schema "
                f"has {len(labels)}"
            )

    @property
    def width(self) -> int:
        """Number of columns."""
        return len(self.labels)


class ColumnBlock:
    """A labelled block of equal-length float columns under a schema.

    Reducers index it like a mapping, the writer renders it via
    :meth:`to_matrix` + the schema's ``csv_fmt``, and the streaming layer
    re-chunks it with :meth:`slice` / :meth:`concatenate`, both of which
    return blocks of the caller's class.
    """

    __slots__ = ("schema", "_columns")

    def __init__(self, columns: "dict[str, np.ndarray]", schema: TableSchema):
        if set(columns) != set(schema.labels):
            raise ValueError(
                f"columns {sorted(columns)} do not match schema labels "
                f"{sorted(schema.labels)}"
            )
        arrays: "dict[str, np.ndarray]" = {}
        length: "int | None" = None
        for label in schema.labels:
            values = np.asarray(columns[label], dtype=float)
            if values.ndim != 1:
                raise ValueError(f"column {label!r} must be one-dimensional")
            if length is None:
                length = values.shape[0]
            elif values.shape[0] != length:
                raise ValueError(
                    f"column {label!r} has {values.shape[0]} rows; "
                    f"expected {length}"
                )
            arrays[label] = values
        self.schema = schema
        self._columns = arrays

    @classmethod
    def _of(cls, columns: "dict[str, np.ndarray]", schema: TableSchema):
        """A ``cls`` block over ``columns``, whatever ``cls``'s constructor takes."""
        block = cls.__new__(cls)
        ColumnBlock.__init__(block, columns, schema)
        return block

    def __len__(self) -> int:
        return self._columns[self.schema.labels[0]].shape[0]

    def column(self, label: str) -> np.ndarray:
        """One column by label (the population accessor)."""
        return self._columns[label]

    def __getitem__(self, label: str) -> np.ndarray:
        return self.column(label)

    def __contains__(self, label: str) -> bool:
        return label in self._columns

    def __iter__(self):
        return iter(self.schema.labels)

    def keys(self) -> "tuple[str, ...]":
        return self.schema.labels

    def to_matrix(self) -> np.ndarray:
        """Rows as a C-contiguous float64 ``(n, width)`` matrix.

        Column order is the schema's label order, so the matrix bytes (and
        everything hashed from them) identify the block content exactly.
        """
        return np.ascontiguousarray(
            np.column_stack([self._columns[label] for label in self.schema.labels])
        )

    def _take(self, index):
        """The rows ``index`` selects, as a block of the caller's class."""
        return self._of(
            {label: column[index] for label, column in self._columns.items()},
            self.schema,
        )

    def slice(self, lo: int, hi: int):
        """Row range ``[lo, hi)`` as numpy views (no copy)."""
        return self._take(slice(lo, hi))

    @classmethod
    def concatenate(cls, blocks: "list[ColumnBlock]"):
        """Concatenate same-schema blocks in order."""
        if not blocks:
            raise ValueError("cannot concatenate an empty list of blocks")
        schema = blocks[0].schema
        for block in blocks[1:]:
            if block.schema != schema:
                raise ValueError("cannot concatenate blocks of different schemas")
        return cls._of(
            {
                label: np.concatenate([block._columns[label] for block in blocks])
                for label in schema.labels
            },
            schema,
        )
