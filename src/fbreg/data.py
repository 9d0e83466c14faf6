"""Dataset ingestion and design-matrix construction.

CSV in, immutable Dataset out: numeric columns pass through, categorical
columns expand to reference-coded dummy indicators, an intercept column is
prepended unless the design explicitly omits it, and the trial-count bound N
defaults to max(y).  The full-rank check mirrors the identifiability
requirement that no nonzero combination of covariates is constant.
"""
from __future__ import annotations

import csv
import hashlib
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ColumnSpec",
    "DataError",
    "Dataset",
    "DesignCells",
    "RankDeficiencyError",
    "encode_profile",
    "load_csv",
    "validate_full_rank",
]

log = logging.getLogger(__name__)

_MISSING_TOKENS = {"", "na", "nan", "n/a", "null"}


class DataError(ValueError):
    """Malformed input data or column specification."""


class RankDeficiencyError(DataError):
    """Design matrix columns are linearly dependent."""


@dataclass(frozen=True)
class ColumnSpec:
    """How one CSV column enters the design.

    kind 'numeric' passes the parsed float through; kind 'categorical' expands
    observed levels to len(levels) - 1 dummy indicators against a reference
    level (default: first level in order of appearance).
    """

    name: str
    kind: str = "numeric"
    reference_level: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("numeric", "categorical"):
            raise DataError(f"unknown column kind {self.kind!r} for {self.name!r}")


def validate_full_rank(X: np.ndarray, column_names: Sequence[str] | None = None) -> None:
    """Raise RankDeficiencyError unless X has full column rank.

    Rank is judged by singular values with relative tolerance 1e-10; when a
    deficiency is found, columns expressible as combinations of the others are
    named in the error message.
    """
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    if n < m:
        raise RankDeficiencyError(f"only {n} rows for {m} design columns")
    s = np.linalg.svd(X, compute_uv=False)
    if s[0] == 0.0:
        raise RankDeficiencyError("design matrix is identically zero")
    rank = int(np.sum(s > 1e-10 * s[0]))
    if rank == m:
        return
    names = list(column_names) if column_names else [f"col{j}" for j in range(m)]
    offenders = []
    for j in range(m):
        others = np.delete(X, j, axis=1)
        if others.shape[1] == 0:
            continue
        coef, *_ = np.linalg.lstsq(others, X[:, j], rcond=None)
        resid = X[:, j] - others @ coef
        scale = max(float(np.abs(X[:, j]).max()), 1.0)
        if float(np.abs(resid).max()) <= 1e-8 * scale:
            offenders.append(names[j])
    detail = ", ".join(offenders) if offenders else "undetermined columns"
    raise RankDeficiencyError(
        f"design matrix rank {rank} < {m}; linearly dependent: {detail}"
    )


class DesignCells(NamedTuple):
    """The distinct (design row, count) pairs of a dataset, in order of first
    appearance: X[j] and y[j] occur counts[j] times, and observation i is
    cell inverse[i]."""

    X: np.ndarray
    y: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True, eq=False)
class Dataset:
    """Counts plus design matrix, immutable once constructed.

    y holds nonnegative integer counts; X is the n x m design whose first
    column is the intercept when has_intercept is set.  N bounds the count
    support and must cover max(y).  categorical_levels records observed levels
    per categorical column, reference level first.

    An observation's log-mass depends only on its (x, y) pair, so the
    likelihood runs once per distinct pair (``cells``) and weights each by
    how often it occurs; a design with continuous covariates has n cells.
    ``cells`` and ``digest()`` are computed on first use and kept.
    """

    y: np.ndarray
    X: np.ndarray
    column_names: tuple[str, ...]
    N: int
    has_intercept: bool = True
    column_specs: tuple[ColumnSpec, ...] = ()
    categorical_levels: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    n_dropped: int = 0

    def __post_init__(self) -> None:
        y = np.asarray(self.y)
        if y.ndim != 1 or y.size == 0:
            raise DataError("response must be a nonempty 1-d array")
        if not np.issubdtype(y.dtype, np.integer):
            y_float = np.asarray(y, dtype=float)
            if np.any(y_float != np.floor(y_float)):
                raise DataError("response must contain integers")
            y = y_float.astype(np.int64)
        else:
            y = y.astype(np.int64)
        if np.any(y < 0):
            raise DataError("response must be nonnegative")
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise DataError(f"design shape {X.shape} inconsistent with n={y.shape[0]}")
        if not np.all(np.isfinite(X)):
            raise DataError("design matrix contains non-finite values")
        if len(self.column_names) != X.shape[1]:
            raise DataError("column_names length must match design width")
        if self.has_intercept and not np.all(X[:, 0] == 1.0):
            raise DataError("first design column must be identically 1")
        if int(self.N) < max(1, int(y.max())):
            raise DataError(f"N={self.N} below max(y)={int(y.max())}")
        y.flags.writeable = False
        X.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "categorical_levels", dict(self.categorical_levels))
        validate_full_rank(X, self.column_names)

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    @property
    def n_covariate_columns(self) -> int:
        return self.X.shape[1] - (1 if self.has_intercept else 0)

    @cached_property
    def cells(self) -> DesignCells:
        """Distinct (design row, count) pairs, their counts and the map back."""
        pairs = np.column_stack([self.X, self.y])
        _, first, inverse, counts = np.unique(
            pairs, axis=0, return_index=True, return_inverse=True, return_counts=True
        )
        # renumber the sorted cells by first appearance, so that a design
        # without repeats keeps its rows in their own order
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        X = np.ascontiguousarray(self.X[first[order]])
        y = self.y[first[order]]
        counts = counts[order].astype(float)
        inverse = rank[inverse.ravel()]
        for a in (X, y, counts, inverse):
            a.flags.writeable = False
        return DesignCells(X, y, counts, inverse)

    def digest(self) -> str:
        """Hash of the canonicalized parsed data (independent of source formatting).

        Covers y, X, column names, and the intercept flag.  N is model
        configuration, not data, and is deliberately excluded so fits with
        different N overrides remain comparable on the same data.
        """
        return self._digest

    @cached_property
    def _digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.column_names).encode())
        h.update(b"intercept=1" if self.has_intercept else b"intercept=0")
        h.update(b"|y|")
        h.update(" ".join(str(int(v)) for v in self.y).encode())
        h.update(b"|X|")
        for row in self.X:
            h.update((" ".join("%.17g" % v for v in row) + "\n").encode())
        return h.hexdigest()

    def summary(self) -> dict:
        return {
            "n": self.n,
            "k": self.n_covariate_columns,
            "N": self.N,
            "columns": list(self.column_names),
            "dropped_rows": self.n_dropped,
        }

    def to_csv(self, path, response_name: str = "y") -> None:
        """Write response plus non-intercept design columns, float64-round-trip safe."""
        start = 1 if self.has_intercept else 0
        names = self.column_names[start:]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([response_name, *names])
            for i in range(self.n):
                row = [str(int(self.y[i]))]
                row += ["%.17g" % v for v in self.X[i, start:]]
                writer.writerow(row)


def _is_missing(token: str) -> bool:
    return token.strip().lower() in _MISSING_TOKENS


def _parse_response(token: str, column: str) -> int:
    try:
        value = float(token)
    except ValueError as exc:
        raise DataError(f"response column {column!r} has non-numeric value {token!r}") from exc
    if not value.is_integer() or value < 0:
        raise DataError(
            f"response column {column!r} must hold nonnegative integers, got {token!r}"
        )
    return int(value)


def load_csv(
    path,
    response_column: str,
    column_specs: Sequence[ColumnSpec],
    N: int | None = None,
    include_intercept: bool = True,
) -> Dataset:
    """Parse a CSV file into a Dataset.

    Rows with any missing field among the used columns are dropped with a
    logged count.  Categorical levels are collected in order of first
    appearance; the reference level is the spec's if given (it must be
    observed), else the first seen.  N defaults to max(y) and may only be
    overridden upward.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        col_index = {name: i for i, name in enumerate(header)}
        if response_column not in col_index:
            raise DataError(f"{path}: missing response column {response_column!r}")
        for spec in column_specs:
            if spec.name not in col_index:
                raise DataError(f"{path}: missing covariate column {spec.name!r}")

        used = [response_column] + [s.name for s in column_specs]
        rows: list[list[str]] = []
        n_dropped = 0
        for raw in reader:
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if any(_is_missing(raw[col_index[c]]) for c in used if col_index[c] < len(raw)) or any(
                col_index[c] >= len(raw) for c in used
            ):
                n_dropped += 1
                continue
            rows.append(raw)
    if n_dropped:
        log.info("dropped %d rows with missing values", n_dropped)
    if not rows:
        raise DataError(f"{path}: no complete rows")

    y = np.array(
        [_parse_response(r[col_index[response_column]].strip(), response_column) for r in rows],
        dtype=np.int64,
    )

    blocks: list[np.ndarray] = []
    names: list[str] = []
    categorical_levels: dict[str, tuple[str, ...]] = {}
    for spec in column_specs:
        tokens = [r[col_index[spec.name]].strip() for r in rows]
        if spec.kind == "numeric":
            try:
                col = np.array([float(t) for t in tokens], dtype=float)
            except ValueError as exc:
                raise DataError(f"column {spec.name!r} has non-numeric value") from exc
            blocks.append(col[:, None])
            names.append(spec.name)
        else:
            levels: list[str] = []
            for t in tokens:
                if t not in levels:
                    levels.append(t)
            if len(levels) < 2:
                raise DataError(
                    f"categorical column {spec.name!r} needs >= 2 observed levels, got {levels}"
                )
            ref = spec.reference_level if spec.reference_level is not None else levels[0]
            if ref not in levels:
                raise DataError(
                    f"reference level {ref!r} of column {spec.name!r} never observed"
                )
            ordered = [ref] + [lv for lv in levels if lv != ref]
            categorical_levels[spec.name] = tuple(ordered)
            for lv in ordered[1:]:
                indicator = np.array([1.0 if t == lv else 0.0 for t in tokens])
                blocks.append(indicator[:, None])
                names.append(f"{spec.name}={lv}")

    parts = [np.ones((len(rows), 1))] if include_intercept else []
    col_names = ["intercept"] if include_intercept else []
    parts += blocks
    col_names += names
    if not parts:
        raise DataError("design matrix has no columns")
    X = np.hstack(parts)

    n_default = max(1, int(y.max()))
    if N is None:
        N_final = n_default
    else:
        if int(N) < int(y.max()):
            raise DataError(f"N override {N} is below max(y) = {int(y.max())}")
        N_final = int(N)

    return Dataset(
        y=y,
        X=X,
        column_names=tuple(col_names),
        N=N_final,
        has_intercept=include_intercept,
        column_specs=tuple(column_specs),
        categorical_levels=categorical_levels,
        n_dropped=n_dropped,
    )


def encode_profile(dataset: Dataset, profile: Mapping[str, object]) -> np.ndarray:
    """Build one design row from covariate values given by name.

    Numeric covariates take their float value; categorical covariates take an
    observed level label.  Every covariate in the dataset's specs must be
    supplied.
    """
    values: dict[str, float] = {}
    for spec in dataset.column_specs:
        if spec.name not in profile:
            raise DataError(f"profile missing covariate {spec.name!r}")
        given = profile[spec.name]
        if spec.kind == "numeric":
            values[spec.name] = float(given)  # type: ignore[arg-type]
        else:
            levels = dataset.categorical_levels[spec.name]
            label = str(given)
            if label not in levels:
                raise DataError(
                    f"level {label!r} of {spec.name!r} not among observed levels {levels}"
                )
            for lv in levels[1:]:
                values[f"{spec.name}={lv}"] = 1.0 if label == lv else 0.0
    row = []
    start = 1 if dataset.has_intercept else 0
    for name in dataset.column_names[start:]:
        if name not in values:
            raise DataError(f"no value for design column {name!r}")
        row.append(values[name])
    if dataset.has_intercept:
        row = [1.0] + row
    return np.asarray(row, dtype=float)
