"""Data containers, synthetic generators, and basic sample statistics.

All indices in the public API are 0-based. CSV files use math-style column
headers x1..xd plus an optional response column named ``y``. Every sample
correlation in hdlab is one routine: _corr_columns of a _centered tuple.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateColumnError,
    NotStandardizedError,
    UndefinedCorrelationError,
    ValidationError,
)
from .report import write_table

_EPS = np.finfo(np.float64).eps


def _require_finite(a, what):
    """Raise ValidationError unless every entry of a is finite; the one
    finiteness scan of a Dataset's arrays."""
    if not np.all(np.isfinite(a)):
        raise ValidationError("%s contains non-finite entries" % what)


def _as_matrix(X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be a 2-d array, got ndim=%d" % X.ndim)
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValidationError("X must have at least one row and one column")
    return X


@dataclass(frozen=True)
class Dataset:
    """Design matrix with an optional response vector.

    Arguments
    ---------
    X : (n, d) array of finite floats.
    y : optional (n,) response vector of finite floats.
    column_names : optional tuple of d names; defaults to x1..xd on CSV output.
    transform : None, except on a standardize() output: the (x_mean, x_sd,
        y_mean) it removed.

    X and y are read-only once built. Dataset(...) scans both for non-finite
    entries, so read_csv and every CLI loader check their input in full.
    Producers whose X is finite by construction build through _from_finite,
    which scans y but not X: the normal draws of gen_linear, gen_iid_gaussian,
    gen_two_class and gen_spiked (which checks its scaled columns), the
    replicates of spurious_correlation_experiment, standardize's output when
    every column sd is finite, and the row subsets of a checked Dataset that
    cross_validate and rcv_variance take. A wide design is then scanned once,
    where it enters the package, instead of again at every derived copy.
    """

    X: np.ndarray
    y: np.ndarray = None
    column_names: tuple = None
    transform: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, scan_x=True):
        X = _as_matrix(self.X)
        if scan_x:
            _require_finite(X, "X")
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        if self.y is not None:
            y = np.asarray(self.y, dtype=np.float64)
            if y.ndim != 1 or y.shape[0] != X.shape[0]:
                raise ValidationError(
                    "y must be 1-d with length %d, got shape %s" % (X.shape[0], y.shape)
                )
            _require_finite(y, "y")
            y.setflags(write=False)
            object.__setattr__(self, "y", y)
        if self.column_names is not None:
            names = tuple(str(c) for c in self.column_names)
            if len(names) != X.shape[1]:
                raise ValidationError(
                    "column_names has %d entries for %d columns" % (len(names), X.shape[1])
                )
            object.__setattr__(self, "column_names", names)

    @classmethod
    def _from_finite(cls, X, y=None, column_names=None):
        """A Dataset built as Dataset(X, y, column_names) is, but without the
        scan of X: only for an X whose entries are already known finite."""
        out = object.__new__(cls)
        for name, value in (("X", X), ("y", y), ("column_names", column_names),
                            ("transform", None)):
            object.__setattr__(out, name, value)
        out.__post_init__(scan_x=False)
        return out

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    def name_of(self, j):
        if self.column_names is not None:
            return self.column_names[j]
        return "x%d" % (j + 1)

    def require_y(self):
        if self.y is None:
            raise ValidationError("this operation needs a response vector y")
        return self.y

    def require_standardized(self, what):
        """Raise NotStandardizedError unless the columns have mean ~0 and sd ~1.
        A standardize() output passes unchecked: its X was made there, read-only."""
        if self.transform is None and not is_standardized(self.X):
            raise NotStandardizedError(
                "%s need standardized columns; run standardize() first" % what)


@dataclass(frozen=True)
class LinearModelSpec:
    """Sparse linear model y = X beta + eps with optional endogenous columns.

    beta maps 0-based column index -> coefficient. endogenous_set maps column
    index -> coupling strength w. With endogenous_mode="direct" the noise gains
    w * X_j (so E[eps X_j] != 0); with "quadratic" it gains w * (X_j^2 - 1),
    which keeps E[eps X_j] = 0 while E[eps X_j^2] != 0.
    """

    n: int
    d: int
    beta: dict
    noise_sd: float = 1.0
    endogenous_set: dict = field(default_factory=dict)
    endogenous_mode: str = "direct"

    def __post_init__(self):
        if self.n < 2 or self.d < 1:
            raise ValidationError("need n >= 2 and d >= 1")
        for j, b in self.beta.items():
            if not 0 <= int(j) < self.d:
                raise ValidationError("beta index %r outside [0, %d)" % (j, self.d))
            if not np.isfinite(b):
                raise ValidationError("beta value at index %r must be finite" % j)
        for j, w in self.endogenous_set.items():
            if not 0 <= int(j) < self.d:
                raise ValidationError("endogenous index %r outside [0, %d)" % (j, self.d))
            if not np.isfinite(w):
                raise ValidationError("coupling strength must be finite")
        if not (np.isfinite(self.noise_sd) and self.noise_sd >= 0):
            raise ValidationError("noise_sd must be finite and >= 0")
        if self.endogenous_mode not in ("direct", "quadratic"):
            raise ValidationError(
                "endogenous_mode must be 'direct' or 'quadratic', got %r" % self.endogenous_mode
            )

    def beta_vector(self):
        b = np.zeros(self.d)
        for j, v in self.beta.items():
            b[int(j)] = v
        return b


@dataclass(frozen=True)
class TwoClassGaussianSpec:
    """Two Gaussian classes with identity covariance and given mean vectors."""

    n_per_class: int
    d: int
    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self):
        if self.n_per_class < 2:
            raise ValidationError("need n_per_class >= 2")
        for name in ("mu1", "mu2"):
            mu = np.asarray(getattr(self, name), dtype=np.float64)
            if mu.shape != (self.d,):
                raise ValidationError("%s must have shape (%d,)" % (name, self.d))
            if not np.all(np.isfinite(mu)):
                raise ValidationError("%s contains non-finite entries" % name)
            object.__setattr__(self, name, mu)


def gen_iid_gaussian(n, d, seed):
    """Pure-noise design: n x d independent standard normal entries."""
    rng = np.random.default_rng(seed)
    return Dataset._from_finite(rng.standard_normal((n, d)))


def gen_two_class(spec, seed):
    """Two-class Gaussian sample; rows 0..n-1 are class 0, the rest class 1.

    Returns a Dataset whose y holds the class labels (0.0 or 1.0). A finite
    mean plus a normal draw is finite, so X is not scanned.
    """
    rng = np.random.default_rng(seed)
    n = spec.n_per_class
    X1 = spec.mu1 + rng.standard_normal((n, spec.d))
    X2 = spec.mu2 + rng.standard_normal((n, spec.d))
    X = np.vstack([X1, X2])
    labels = np.repeat([0.0, 1.0], n)
    return Dataset._from_finite(X, labels)


def gen_linear(spec, seed):
    """Draw X ~ N(0, I), then y = X beta + eps per the model spec.

    The endogenous couplings are added to eps in increasing column order so
    the output depends only on (spec, seed). X is a normal draw and is not
    scanned; y is, so an infinite beta raises ValidationError.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((spec.n, spec.d))
    eps = spec.noise_sd * rng.standard_normal(spec.n)
    for j in sorted(int(k) for k in spec.endogenous_set):
        w = spec.endogenous_set[j]
        if spec.endogenous_mode == "direct":
            eps = eps + w * X[:, j]
        else:
            eps = eps + w * (X[:, j] ** 2 - 1.0)
    y = X @ spec.beta_vector() + eps
    return Dataset._from_finite(X, y)


def gen_spiked(n, d, spike_count=10, spike_sd=5.0, seed=0):
    """Independent normal columns where the first spike_count have sd spike_sd.

    A cheap stand-in for data with a genuine low-dimensional signal on top of
    isotropic noise; useful for comparing projection methods.
    """
    if not 0 <= spike_count <= d:
        raise ConfigurationError("spike_count must lie in [0, d]")
    if not (np.isfinite(spike_sd) and spike_sd > 0):
        raise ConfigurationError("spike_sd must be positive")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X[:, :spike_count] *= spike_sd
    _require_finite(X[:, :spike_count], "X")  # a large spike_sd can overflow
    return Dataset._from_finite(X)


def standardize(data):
    """Center every column and scale to unit standard deviation (ddof=1), and
    center the response when there is one; `transform` records both, so a raw
    row x is fitted as y_mean + ((x - x_mean) / x_sd) @ beta.

    Raises DegenerateColumnError naming the first column that
    _center_columns finds constant, else the first whose sd underflows to 0
    (a spread of a few subnormal squares). Requires n >= 2.
    """
    if data.n < 2:
        raise ValidationError("standardize needs at least 2 rows")
    mu, Xc, col_sq, constant = _center_columns(data.X)
    if constant.size:
        raise DegenerateColumnError("column %s is constant" % data.name_of(int(constant[0])))
    sd = np.sqrt(col_sq / (data.n - 1))  # as np.std(ddof=1)
    underflow = np.flatnonzero(sd == 0.0)
    if underflow.size:
        raise DegenerateColumnError("column %s has an sd that underflows to 0"
                                    % data.name_of(int(underflow[0])))
    Xc /= sd
    y_mean = None if data.y is None else float(data.y.mean())
    yc = None if data.y is None else data.y - y_mean
    # A finite sd_j > 0 bounds every |Xc_ij| by about sqrt(n - 1), so Xc is
    # finite unscanned; a non-finite sd (X's scale overflowed) takes the scan.
    build = Dataset._from_finite if np.all(np.isfinite(sd)) else Dataset
    out = build(Xc, yc, data.column_names)
    object.__setattr__(out, "transform", (mu, sd, y_mean))
    return out


def is_standardized(X, mean_tol=1e-8, sd_tol=1e-6):
    """True when every column has mean ~0 and sample sd ~1.

    The sd is sqrt((sum x^2 - n mu^2)/(n - 1)), from one pass over X with no
    n x d temporary; it is taken only once every |mu| is within mean_tol,
    where the subtraction cancels nothing of note.
    """
    n = X.shape[0]
    if n < 2:
        return False
    mu = X.mean(axis=0)
    if not np.max(np.abs(mu)) <= mean_tol:
        return False
    var = (np.einsum("ij,ij->j", X, X) - n * mu * mu) / (n - 1)
    with np.errstate(invalid="ignore"):
        return bool(np.max(np.abs(np.sqrt(var) - 1.0)) <= sd_tol)


def is_int(v):
    """True for an int or np.integer count; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _center_columns(X):
    """(column means, Xc, squared column norms of Xc, sorted indices of the
    constant columns) for X: the data layer's one constant-column rule.

    Constancy is tested on the entries too: the mean of n copies of c is not
    always c (three 0.1s), which leaves a nonzero centered norm. That mean
    is within n eps |c| / 2 of c (summed row by row; a pairwise sum is
    closer), so a constant column j has a centered squared norm of at most
    n^3 eps^2 x_0j^2 / 4. Only the columns whose norm is at most 16 times
    that, 4 n^3 eps^2 x_0j^2, or NaN, are compared with row 0; the others
    cannot be constant. A zero norm counts as constant.
    """
    mu = X.mean(axis=0)
    Xc = X - mu
    col_sq = np.einsum("ij,ij->j", Xc, Xc)
    with np.errstate(over="ignore"):  # x_0j^2 = inf leaves column j a candidate
        near = np.flatnonzero(~(col_sq > (4.0 * X.shape[0] ** 3 * _EPS ** 2) * (X[0] * X[0])))
    constant = near[(col_sq[near] == 0.0) | np.all(X[:, near] == X[0, near], axis=0)]
    return mu, Xc, col_sq, constant


def _centered(X, v):
    """(Xc, vc, squared column norms of Xc, squared norm(s) of vc) for X and
    a target v of shape (n,) or (n, m). Raises UndefinedCorrelationError for
    a constant target, else for the first constant column of X (its
    `column`), by _center_columns's rule.
    """
    vc = v - v.mean(axis=0)
    v_sq = vc @ vc if vc.ndim == 1 else np.einsum("ij,ij->j", vc, vc)
    if np.any((v_sq == 0.0) | np.all(v == v[0], axis=0)):
        raise UndefinedCorrelationError("target vector is constant")
    _, Xc, col_sq, constant = _center_columns(X)
    if constant.size:
        j = int(constant[0])
        raise UndefinedCorrelationError("column %d is constant" % j, column=j)
    return Xc, vc, col_sq, v_sq


def _corr_columns(centered):
    """Correlation of every column of X with v, given _centered(X, v): shape
    (d,), or (d, m) for m targets; the one correlation routine of hdlab."""
    Xc, vc, col_sq, v_sq = centered
    return np.clip((Xc.T @ vc) / np.multiply.outer(np.sqrt(col_sq), np.sqrt(v_sq)), -1.0, 1.0)


def sample_corr(x, y):
    """Pearson correlation of two vectors, clipped into [-1, 1].

    Raises ValidationError when either vector holds a non-finite entry, and
    UndefinedCorrelationError when either vector is constant.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValidationError("inputs must be 1-d vectors of equal length")
    if x.shape[0] < 2:
        raise ValidationError("correlation needs at least 2 observations")
    _require_finite(x, "x")
    _require_finite(y, "y")
    return float(_corr_columns(_centered(x[:, None], y))[0])


def write_csv(data, path):
    """Write the dataset as CSV: named feature columns, response last as 'y'.

    Floats are written with repr so a read-back reproduces the array exactly.
    """
    names = [data.name_of(j) for j in range(data.d)]
    columns = list(data.X.T)
    if data.y is not None:
        names.append("y")
        columns.append(data.y)
    write_table(path, names, columns)


def read_csv(path, y_col="y"):
    """Read a Dataset written by write_csv (or any numeric CSV with a header).

    The column named y_col (default 'y'), when present, becomes the response.
    Pass y_col=None to treat every column as a feature. X and y are
    C-contiguous either way, as arrays built in memory are, so products
    such as X'X have the same last bits as on the in-memory data.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("empty CSV file: %s" % path)
        rows = [r for r in reader if r]
    if not rows:
        raise ValidationError("CSV has a header but no data rows: %s" % path)
    try:
        M = np.array([[float(v) for v in r] for r in rows], dtype=np.float64)
    except ValueError as exc:
        raise ValidationError("non-numeric cell in %s (%s)" % (path, exc))
    if M.shape[1] != len(header):
        raise ValidationError("row width does not match header in %s" % path)
    if y_col is not None and y_col in header:
        yi = header.index(y_col)
        keep = [j for j in range(len(header)) if j != yi]
        return Dataset(np.ascontiguousarray(M[:, keep]), np.ascontiguousarray(M[:, yi]),
                       tuple(header[j] for j in keep))
    return Dataset(M, None, tuple(header))
