"""Chunked data sources: block-wise access to datasets of any size.

A :class:`DataSource` exposes one primitive — ``iter_blocks()``, yielding
``(X_block, y_block)`` row blocks of at most ``block_size`` rows in dataset
order — plus ``take(indices)`` for gathering specific rows. Everything the
out-of-core trainers need (class counts, majority/minority index maps, the
materialised minority set) comes from :func:`class_index_scan`, a single
pass over the blocks.

Three concrete sources cover the common shapes:

* :class:`ArraySource` — in-memory arrays, blocks are zero-copy views. The
  adapter that lets every streaming consumer also serve in-memory data, and
  the reference for the bit-identity tests.
* :class:`NPYSource` — ``.npy`` files opened with ``mmap_mode="r"``: blocks
  and gathers copy only the rows they touch, so training memory stays
  bounded by the block size, not the file size.
* :class:`CSVSource` — text files parsed ``block_size`` lines at a time;
  the slowest but most universal ingress. :func:`save_csv` writes floats
  with ``%.17g`` so a round-trip through CSV is bit-exact.

Sources carry only cheap state (paths or array references), so they pickle
across process boundaries and can be handed to the parallel engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import DataValidationError
from ..parallel import DEFAULT_CHUNK_SIZE
from ..utils.validation import check_binary_labels, check_X_y

__all__ = [
    "ArraySource",
    "CSVSource",
    "ClassIndexScan",
    "DataSource",
    "EncodedLabelSource",
    "NPYSource",
    "class_index_scan",
    "encoded_label_source",
    "label_value_scan",
    "save_csv",
]


def _integral_labels(values, origin: str) -> np.ndarray:
    """Cast labels to int, rejecting values the cast would silently corrupt.

    The in-memory path raises on a label like 1.5; a bare ``astype(int)``
    would truncate it to 1 instead, so file sources must validate before
    casting.
    """
    values = np.asarray(values)
    if values.dtype.kind == "f":
        if not np.all(np.isfinite(values)) or not np.all(
            values == np.round(values)
        ):
            raise DataValidationError(
                f"{origin}: labels must be integers (found non-integral values)"
            )
    return values.astype(int)


class DataSource(abc.ABC):
    """Abstract chunked dataset: fixed-size row blocks in dataset order.

    Parameters
    ----------
    block_size : int, default :data:`repro.parallel.DEFAULT_CHUNK_SIZE`
        Maximum rows per yielded block; trades memory against per-block
        overhead. The exact training paths (``mode="exact"`` SPE and the
        balanced-subset ``fit_source`` adapters) produce the same trained
        models for any value, as the inference engine's result does for
        any row chunk. ``mode="reservoir"`` is the exception:
        its reservoir RNG draws depend on how rows are grouped, so its
        (statistically equivalent) models vary with ``block_size``.
    """

    def __init__(self, block_size: Optional[int] = None):
        if block_size is None:
            block_size = DEFAULT_CHUNK_SIZE
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = int(block_size)

    @abc.abstractmethod
    def iter_blocks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(X_block, y_block)`` with ``X_block`` float64 of shape
        ``(<= block_size, n_features)`` and ``y_block`` the matching labels,
        covering every row exactly once, in dataset order."""

    def iter_labels(self) -> Iterator[np.ndarray]:
        """Yield only the label blocks, in dataset order.

        Generic implementation drops the feature blocks of
        :meth:`iter_blocks`; sources that can read labels without touching
        features (in-memory arrays, memory-mapped files) override this so
        label-only passes — e.g. :func:`label_value_scan` — stay cheap.
        """
        for _, y_block in self.iter_blocks():
            yield y_block

    def take(self, indices) -> np.ndarray:
        """Feature rows for the given global indices, in the given order.

        Generic implementation: one streaming pass that copies only the
        requested rows (duplicates allowed). Sources with random access
        override this with direct fancy indexing.
        """
        indices = np.asarray(indices, dtype=np.intp)
        if indices.ndim != 1:
            raise ValueError("indices must be 1D")
        order = np.argsort(indices, kind="stable")
        wanted = indices[order]
        out: Optional[np.ndarray] = None
        offset = 0
        taken = 0
        for X_block, _ in self.iter_blocks():
            if out is None:
                out = np.empty((len(indices), X_block.shape[1]))
            lo = np.searchsorted(wanted, offset, side="left")
            hi = np.searchsorted(wanted, offset + len(X_block), side="left")
            if hi > lo:
                out[order[lo:hi]] = X_block[wanted[lo:hi] - offset]
                taken += hi - lo
            offset += len(X_block)
        if len(indices) and (out is None or taken < len(indices)):
            raise IndexError(
                f"take: indices out of range (source has {offset} rows)"
            )
        if out is None:
            return np.empty((0, 0))
        return out


class ArraySource(DataSource):
    """In-memory ``(X, y)`` pair exposed through the source interface.

    Validates once at construction (same checks as the in-memory ``fit``
    paths), then yields zero-copy views. Feeding one to a streaming trainer
    reproduces the corresponding in-memory trainer bit-for-bit.

    Labels may use any binary alphabet (at most two distinct values —
    {-1, 1}, strings, ...); numeric labels are validated against silent
    truncation like the file sources. Consumers that need the internal
    {0, 1} encoding get it from :func:`label_value_scan` +
    :func:`encoded_label_source` (every ``fit_source`` does this), or
    reject other alphabets at scan time.
    """

    def __init__(self, X, y, block_size: Optional[int] = None):
        super().__init__(block_size)
        X, y = check_X_y(X, y)
        if np.unique(y).size > 2:
            raise DataValidationError(
                f"ArraySource labels must be binary, found {np.unique(y).size} "
                "distinct values."
            )
        self.X = X
        self.y = _integral_labels(y, "ArraySource") if y.dtype.kind in "fiub" else y

    def iter_blocks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for lo in range(0, len(self.y), self.block_size):
            hi = lo + self.block_size
            yield self.X[lo:hi], self.y[lo:hi]

    def iter_labels(self) -> Iterator[np.ndarray]:
        for lo in range(0, len(self.y), self.block_size):
            yield self.y[lo : lo + self.block_size]

    def take(self, indices) -> np.ndarray:
        return self.X[np.asarray(indices, dtype=np.intp)]


class NPYSource(DataSource):
    """Features and labels stored as ``.npy`` files, memory-mapped on read.

    Each ``iter_blocks`` / ``take`` call opens a fresh read-only memmap, so
    the object itself holds no file handles and pickles as two paths —
    process-pool workers each map the file independently, sharing pages
    through the OS cache.
    """

    def __init__(self, x_path, y_path, block_size: Optional[int] = None):
        super().__init__(block_size)
        self.x_path = str(x_path)
        self.y_path = str(y_path)

    def _open(self) -> Tuple[np.ndarray, np.ndarray]:
        X = np.load(self.x_path, mmap_mode="r")
        y = np.load(self.y_path, mmap_mode="r")
        if X.ndim != 2:
            raise DataValidationError(f"{self.x_path}: expected a 2D array")
        if y.ndim != 1 or len(y) != len(X):
            raise DataValidationError(
                f"{self.y_path}: labels must be 1D with one entry per row"
            )
        return X, y

    def iter_blocks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        X, y = self._open()
        for lo in range(0, len(y), self.block_size):
            hi = lo + self.block_size
            yield (
                np.asarray(X[lo:hi], dtype=np.float64),
                _integral_labels(y[lo:hi], self.y_path),
            )

    def iter_labels(self) -> Iterator[np.ndarray]:
        # Label-only pass: maps just the label file, never touches features.
        y = np.load(self.y_path, mmap_mode="r")
        if y.ndim != 1:
            raise DataValidationError(f"{self.y_path}: labels must be 1D")
        for lo in range(0, len(y), self.block_size):
            yield _integral_labels(y[lo : lo + self.block_size], self.y_path)

    def take(self, indices) -> np.ndarray:
        X, _ = self._open()
        return np.asarray(X[np.asarray(indices, dtype=np.intp)], dtype=np.float64)


class CSVSource(DataSource):
    """Delimited text file parsed ``block_size`` lines at a time.

    Parameters
    ----------
    path : str
        File with one sample per line, features then label (or label first
        with ``label_col=0``). No quoting support — numeric columns only.
    label_col : int, default -1
        Column holding the class label.
    delimiter : str, default ","
    skip_header : int, default 0
        Lines to skip before data starts.
    """

    def __init__(
        self,
        path,
        block_size: Optional[int] = None,
        label_col: int = -1,
        delimiter: str = ",",
        skip_header: int = 0,
    ):
        super().__init__(block_size)
        self.path = str(path)
        self.label_col = label_col
        self.delimiter = delimiter
        self.skip_header = skip_header

    def _parse(self, lines: List[str]) -> Tuple[np.ndarray, np.ndarray]:
        try:
            table = np.array(
                [line.split(self.delimiter) for line in lines], dtype=np.float64
            )
        except ValueError as exc:
            raise DataValidationError(f"{self.path}: {exc}") from exc
        if table.ndim != 2 or table.shape[1] < 2:
            raise DataValidationError(
                f"{self.path}: each line needs >= 2 columns (features + label)"
            )
        label_col = self.label_col % table.shape[1]
        y = _integral_labels(table[:, label_col], self.path)
        X = np.delete(table, label_col, axis=1)
        return X, y

    def iter_blocks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        with open(self.path, "r") as handle:
            for _ in range(self.skip_header):
                handle.readline()
            while True:
                lines = []
                for line in handle:
                    line = line.strip()
                    if line:
                        lines.append(line)
                    if len(lines) == self.block_size:
                        break
                if not lines:
                    return
                yield self._parse(lines)


def save_csv(path, X: np.ndarray, y: np.ndarray, delimiter: str = ",") -> None:
    """Write ``(X, y)`` as CSV rows (label last) with round-trip-exact floats.

    ``%.17g`` prints enough digits that parsing the text back yields the
    original float64 bit pattern, so a CSV round-trip preserves the
    bit-identity guarantees of the streaming trainers.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    with open(path, "w") as handle:
        for row, label in zip(X, y):
            cells = [format(v, ".17g") for v in row] + [str(int(label))]
            handle.write(delimiter.join(cells) + "\n")


def label_value_scan(source: DataSource):
    """One label-only pass: ``(classes, counts, minority_idx)``.

    The streaming counterpart of
    :func:`repro.utils.validation.encode_binary_labels`: ``classes`` is the
    sorted array of distinct labels, ``counts`` their populations, and
    ``minority_idx`` the minority label's position (by frequency; tie → the
    second sorted label; ``None`` for a degenerate single-label source drawn
    from {0, 1}). Uses :meth:`DataSource.iter_labels`, so array and ``.npy``
    sources never touch their feature blocks.
    """
    values: dict = {}
    for y_block in source.iter_labels():
        block_classes, block_counts = np.unique(np.asarray(y_block), return_counts=True)
        for cls, cnt in zip(block_classes.tolist(), block_counts.tolist()):
            values[cls] = values.get(cls, 0) + int(cnt)
        if len(values) > 2:
            raise DataValidationError(
                f"Expected binary labels, found {len(values)} classes: "
                f"{sorted(values)!r}."
            )
    if not values:
        raise DataValidationError("source yielded no rows")
    classes = np.array(sorted(values))
    counts = np.array([values[c] for c in classes.tolist()], dtype=np.int64)
    if classes.size == 1:
        if classes[0] in (0, 1):
            return classes, counts, None
        raise DataValidationError(
            f"Expected two classes, found only {classes[0]!r}; cannot assign "
            "majority/minority roles to a single arbitrary label."
        )
    return classes, counts, 0 if counts[0] < counts[1] else 1


class EncodedLabelSource(DataSource):
    """View of a source with labels mapped to the internal {0, 1} encoding.

    Feature blocks and ``take`` pass straight through; every label block is
    rewritten so the given minority label reads 1 and the other label 0.
    Lets the whole streaming training stack — written against the internal
    encoding — consume sources with arbitrary binary label alphabets.
    """

    def __init__(self, source: DataSource, minority_label):
        super().__init__(source.block_size)
        self.source = source
        self.minority_label = minority_label

    def _encode(self, y_block) -> np.ndarray:
        return (np.asarray(y_block) == self.minority_label).astype(int)

    def iter_blocks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for X_block, y_block in self.source.iter_blocks():
            yield X_block, self._encode(y_block)

    def iter_labels(self) -> Iterator[np.ndarray]:
        for y_block in self.source.iter_labels():
            yield self._encode(y_block)

    def take(self, indices) -> np.ndarray:
        return self.source.take(indices)


def encoded_label_source(source: DataSource, classes, minority_idx) -> DataSource:
    """Source view carrying internal {0, 1} labels.

    Returns ``source`` itself when the alphabet already *is* the internal
    encoding (classes ``[0, 1]`` with 1 the minority, or a degenerate
    single-{0, 1}-label source), otherwise an :class:`EncodedLabelSource`.
    """
    classes = np.asarray(classes)
    if minority_idx is None:
        return source
    if classes.size == 2 and classes[0] == 0 and classes[1] == 1 and minority_idx == 1:
        return source
    return EncodedLabelSource(source, classes[minority_idx])


@dataclass
class ClassIndexScan:
    """Result of one pass over a source (see :func:`class_index_scan`).

    ``maj_idx`` / ``min_idx`` / ``y`` are populated only when the scan ran
    with ``collect_indices=True`` (the exact training mode); ``X_min`` only
    with ``collect_minority=True``. Index arrays cost O(rows) *metadata*
    bytes; the feature matrix — the term that dominates at scale — is never
    materialised.
    """

    n_rows: int
    n_features: int
    n_majority: int
    n_minority: int
    y: Optional[np.ndarray] = None
    maj_idx: Optional[np.ndarray] = None
    min_idx: Optional[np.ndarray] = None
    X_min: Optional[np.ndarray] = None


def class_index_scan(
    source: DataSource,
    *,
    collect_indices: bool = True,
    collect_minority: bool = False,
) -> ClassIndexScan:
    """Single streaming pass: class counts, index maps, minority rows.

    Validates every block on the way through (finite values, consistent
    feature count, labels in {0, 1}) — the streaming counterpart of
    ``check_X_y`` + ``check_binary_labels``. Raises
    :class:`~repro.exceptions.DataValidationError` for an empty source or a
    missing class, mirroring the in-memory trainers.
    """
    n_rows = 0
    n_features: Optional[int] = None
    label_blocks: List[np.ndarray] = []
    minority_blocks: List[np.ndarray] = []
    counts = np.zeros(2, dtype=np.int64)
    for X_block, y_block in source.iter_blocks():
        X_block = np.asarray(X_block, dtype=np.float64)
        y_block = np.asarray(y_block)
        if X_block.ndim != 2 or len(X_block) != len(y_block):
            raise DataValidationError(
                "source blocks must pair a 2D feature block with matching labels"
            )
        if n_features is None:
            n_features = X_block.shape[1]
        elif X_block.shape[1] != n_features:
            raise DataValidationError(
                f"inconsistent feature count across blocks: "
                f"{X_block.shape[1]} != {n_features}"
            )
        if not np.isfinite(X_block).all():
            raise DataValidationError(
                "Input contains NaN or infinity. Impute missing values first "
                "(see repro.preprocessing.SimpleImputer)."
            )
        y_block = check_binary_labels(y_block) if len(y_block) else y_block
        counts += np.bincount(y_block.astype(np.intp), minlength=2)[:2]
        if collect_indices:
            label_blocks.append(np.asarray(y_block, dtype=np.int64))
        if collect_minority:
            minority_blocks.append(X_block[y_block == 1])
        n_rows += len(y_block)
    if n_rows == 0 or n_features is None:
        raise DataValidationError("source yielded no rows")
    if counts[0] == 0 or counts[1] == 0:
        raise DataValidationError(
            "source must contain both classes (0=majority, 1=minority)"
        )
    scan = ClassIndexScan(
        n_rows=n_rows,
        n_features=int(n_features),
        n_majority=int(counts[0]),
        n_minority=int(counts[1]),
    )
    if collect_indices:
        y = np.concatenate(label_blocks)
        scan.y = y
        scan.maj_idx = np.flatnonzero(y == 0)
        scan.min_idx = np.flatnonzero(y == 1)
    if collect_minority:
        scan.X_min = np.vstack(minority_blocks)
    return scan
