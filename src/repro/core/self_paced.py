"""Self-paced Ensemble (paper Algorithm 1) — the core contribution.

Training pipeline (Fig 1 of the paper):

1. cold start: fit ``f₀`` on a random balanced subset;
2. for ``i = 1 .. n−1``:
   a. hardness of every *majority* sample w.r.t. the running ensemble
      ``F_i = mean(f₀ .. f_{i−1})``;
   b. cut the majority into ``k`` equal-width hardness bins;
   c. self-paced factor ``α = tan(π/2 · i/n)`` (paper line 7; see
      :func:`tan_self_paced_factor` for the pinned (i, n) convention);
   d. sample ``|P| · p_ℓ/Σp`` majority points from bin ℓ, ``p_ℓ = 1/(h_ℓ+α)``;
   e. fit ``f_i`` on sampled majority ∪ all minority;
3. predict with the average probability of all base models.

Early iterations (α≈0) harmonise hardness — borderline samples dominate;
late iterations (α→∞) sample every bin equally — a "skeleton" of easy
samples is kept, preventing the outlier-overfitting that degrades
BalanceCascade (paper Fig 5/6).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .. import telemetry
from ..ensemble.bagging import make_member_model
from ..fastpath import TRANSPOSE_ROWS, PackedForest
from ..imbalance_ensemble.base import BaseImbalanceEnsemble
from ..parallel import ensemble_predict_proba, fit_ensemble_member
from ..utils.validation import check_array, check_is_fitted
from .binning import (
    HardnessBins,
    allocate_bin_samples,
    cut_hardness_bins,
    self_paced_bin_weights,
)
from .hardness import resolve_hardness

__all__ = [
    "SelfPacedEnsembleClassifier",
    "tan_self_paced_factor",
    "linear_self_paced_factor",
    "self_paced_under_sample",
]


def tan_self_paced_factor(iteration: int, n_iterations: int) -> float:
    """``α = tan(π/2 · i / n)`` growth schedule (paper line 7 of Algorithm 1).

    Convention (pinned by ``tests/test_core_self_paced.py``): ``n`` is the
    total ensemble size ``n_estimators`` and ``i`` the 1-based self-paced
    iteration, so :meth:`SelfPacedEnsembleClassifier.fit` evaluates the
    schedule at ``i = 1 .. n−1`` exactly as the paper's ``tan(iπ/2n)``.
    ``i = 0`` gives α = 0 (pure hardness harmonise); ``i = n`` evaluates tan
    at π/2 — effectively ∞, flattening the bin weights — but ``fit`` never
    reaches it: the last trained model uses the large-but-finite
    ``tan(π/2 · (n−1)/n)``. (Earlier revisions passed ``n_estimators − 1``
    here, which drove every final iteration — and, for ``n_estimators=2``,
    the *only* self-paced iteration — straight into the ∞ clamp.)
    Floating-point rounding can push ``π/2 · i/n`` a hair past π/2 where
    tan wraps negative, so the result is clamped to a large positive value.
    """
    if n_iterations <= 0:
        return 0.0
    value = float(np.tan(np.pi / 2.0 * min(iteration / n_iterations, 1.0)))
    return value if value >= 0.0 else 1e16


def linear_self_paced_factor(iteration: int, n_iterations: int) -> float:
    """Linear α growth in [0, 1] — an ablation alternative to ``tan``."""
    if n_iterations <= 0:
        return 0.0
    return iteration / n_iterations


_SCHEDULES = {"tan": tan_self_paced_factor, "linear": linear_self_paced_factor}


def _majority_union_minority_sample(
    index: int,
    rng: np.random.RandomState,
    X_sub_maj,
    y_unused,
    X_min,
) -> Tuple[np.ndarray, np.ndarray]:
    """Engine ``sample_fn`` for one SPE member: shuffled sampled-majority ∪
    all-minority training set (labels rebuilt as 0/1)."""
    y_train = np.concatenate(
        [
            np.zeros(len(X_sub_maj), dtype=int),
            np.ones(len(X_min), dtype=int),
        ]
    )
    X_train = np.vstack([X_sub_maj, X_min])
    perm = rng.permutation(len(y_train))
    return X_train[perm], y_train[perm]


def self_paced_under_sample(
    hardness: np.ndarray,
    k_bins: int,
    alpha: float,
    n_samples: int,
    rng: np.random.RandomState,
) -> Tuple[np.ndarray, HardnessBins]:
    """Indices of a self-paced under-sample of the given hardness population.

    Returns ``(selected_indices, bins)``; exposed as a standalone function so
    the Fig 3 bench (bin population / contribution under different α) can
    drive it directly.

    Bin membership is gathered with one stable argsort over the assignments
    instead of a per-bin ``np.flatnonzero`` scan (O(n log n) total instead
    of O(k·n)). A stable sort keeps equal keys in ascending original order,
    so each bin's member array — and therefore every ``rng.choice`` draw —
    is bit-identical to the per-bin-scan formulation (pinned by
    ``tests/test_fastpath_units.py``).

    With ``k_bins ≤ 256`` the sort key is the assignments cast to
    ``uint8``, for which numpy's stable sort is a radix sort (about 5×
    faster than sorting int64 keys over 150k rows); larger ``k_bins`` sort
    the int assignments as they are. A stable sort orders equal keys the
    same way whatever their dtype, so the draw is unchanged. Bin ``b``'s
    members start at the summed populations of bins ``< b``.
    """
    bins = cut_hardness_bins(hardness, k_bins)
    if bins.degenerate:
        n = min(n_samples, hardness.size)
        return rng.choice(hardness.size, size=n, replace=False), bins
    weights = self_paced_bin_weights(bins, alpha)
    counts = allocate_bin_samples(weights, bins.populations, n_samples)
    keys = bins.assignments
    if bins.k <= 256:
        keys = keys.astype(np.uint8)
    order = np.argsort(keys, kind="stable")
    starts = np.concatenate([[0], np.cumsum(bins.populations)])
    chosen: List[np.ndarray] = []
    for b in np.flatnonzero(counts > 0):
        members = order[starts[b] : starts[b + 1]]
        chosen.append(rng.choice(members, size=int(counts[b]), replace=False))
    if not chosen:
        n = min(n_samples, hardness.size)
        return rng.choice(hardness.size, size=n, replace=False), bins
    return np.concatenate(chosen), bins


def _gather_columns(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``X[rows]`` stored column-major as ``(n_features, len(rows))``,
    gathered :data:`~repro.fastpath.TRANSPOSE_ROWS` rows at a time, so
    each row-major staging block stays cache-resident while it is
    scattered into the columns (149k × 30 float64 on a 2-core x86_64
    host: 14 ms against 26 ms for 32,768-row blocks), and no full
    row-major copy is ever held."""
    columns = np.empty((X.shape[1], len(rows)), dtype=X.dtype)
    for lo in range(0, len(rows), TRANSPOSE_ROWS):
        block = rows[lo : lo + TRANSPOSE_ROWS]
        columns[:, lo : lo + len(block)] = X[block].T
    return columns


def _running_mean(mean, latest, n: int):
    """Fold the ``n``-th value into the mean of the first ``n − 1``
    (Algorithm 1, line 4); the first value is the mean itself."""
    return latest if n == 1 else (mean * (n - 1) + latest) / n


class _ExactMajority:
    """The majority seam of the exact trainers: one running average of
    the members' majority probabilities, one hardness per majority row.

    :meth:`SelfPacedEnsembleClassifier._fit_loop` touches the majority in
    three ways: ``cold_start`` (Algorithm 1, line 2), ``draw`` (lines
    5–9) and ``add`` (line 4). Here they are built on two storage
    operations a subclass supplies: ``take(local_indices)`` gathers rows
    by majority-local index and ``score(model)`` is ``model``'s
    positive-class probability on every majority row, in majority order.
    """

    def __init__(self, n_majority: int):
        self._n_majority = n_majority
        self._zeros = np.zeros(n_majority)
        self._proba: Optional[np.ndarray] = None
        self._n_members = 0

    def cold_start(self, n_samples: int, rng: np.random.RandomState) -> np.ndarray:
        """A uniform draw of ``min(n_samples, n_majority)`` majority rows."""
        size = min(n_samples, self._n_majority)
        return self.take(rng.choice(self._n_majority, size=size, replace=False))

    def draw(
        self,
        hardness_fn: Callable,
        k_bins: int,
        alpha: float,
        n_samples: int,
        rng: np.random.RandomState,
    ) -> Tuple[np.ndarray, HardnessBins, np.ndarray]:
        """The self-paced subset for the running average: its rows, the
        bins cut over the whole majority, and the subset's hardness."""
        hardness = hardness_fn(self._zeros, self._proba)
        selected, bins = self_paced_under_sample(
            hardness, k_bins, alpha, n_samples, rng
        )
        return self.take(selected), bins, hardness[selected]

    def add(self, model) -> None:
        """Score ``model`` over the majority and fold it into the average."""
        with telemetry.stage_timer("ensemble_score"):
            latest = self.score(model)
        self._n_members += 1
        self._proba = _running_mean(self._proba, latest, self._n_members)


class InMemoryMajorityAccess(_ExactMajority):
    """The exact majority seam over an in-memory ``X``.

    The majority rows are kept once, column-major (``(n_features,
    n_majority)``, built once per fit), and ``take`` gathers member
    subsets from those columns — the same values as row-major gathers, so
    members are fitted on identical inputs. Each new tree member is packed
    and routed by :meth:`~repro.fastpath.PackedForest.apply_columns` over
    the columns with its raw thresholds: each node's split is a 1-D gather
    from one column, with the exact ``x < t`` comparison of
    :meth:`repro.tree.Tree.apply`, so the returned probabilities are
    bit-identical to the ``proba_fn`` path (gated by the fastpath
    equivalence suite); non-tree models fall back to ``proba_fn`` over a
    row-major copy.
    """

    def __init__(self, X: np.ndarray, maj_idx: np.ndarray, proba_fn: Callable):
        super().__init__(len(maj_idx))
        self._columns = _gather_columns(X, maj_idx)
        self._proba_fn = proba_fn

    def take(self, local_indices: np.ndarray) -> np.ndarray:
        """Rows by majority-local index."""
        return self._columns[:, local_indices].T

    def score(self, model) -> np.ndarray:
        """Positive-class probability of ``model`` on every majority row."""
        forest = PackedForest.from_estimators([model], np.array([0, 1]))
        if forest is not None and forest.n_features == len(self._columns):
            # One member: its probability is its leaf value. Leaf values are
            # finite and non-negative, so this read is bit-identical to
            # proba_from_leaves (0.0 + x, then x / 1).
            leaves = forest.apply_columns(self._columns)
            return forest.value[leaves[0], 1]
        return self._proba_fn(model, np.ascontiguousarray(self._columns.T))


class SelfPacedEnsembleClassifier(BaseImbalanceEnsemble):
    """Self-paced Ensemble (SPE) for highly imbalanced binary classification.

    Parameters
    ----------
    estimator : classifier, default ``DecisionTreeClassifier()``
        Any probabilistic classifier following the library's API. The paper
        demonstrates C4.5, KNN, SVM, MLP, AdaBoost, Bagging, Random Forest
        and GBDT.
    n_estimators : int, default 10
        Number of base models ``n``. Training cost is ``n`` fits on
        ``2|P|``-sized subsets — the efficiency headline of Table V.
    k_bins : int, default 20
        Number of hardness bins ``k``. The paper finds performance stable
        for ``k ≥ 10`` (Fig 8).
    hardness : str or callable, default ``"absolute"``
        Hardness function ``H``; one of ``"absolute"``/``"squared"``/
        ``"cross_entropy"`` (aliases ``"AE"``/``"SE"``/``"CE"``) or any
        ``(y_true, proba_pos) -> np.ndarray``.
    alpha_schedule : str or callable, default ``"tan"``
        Growth of the self-paced factor; ``"tan"`` is the paper's
        ``tan(iπ/2n)``; a callable receives ``(iteration, n_iterations)``.
    include_cold_start : bool, default True
        Whether the random-under-sampling cold-start model ``f₀`` joins the
        final vote (the released reference implementation includes it;
        Algorithm 1's summary line formally averages ``f₁..f_n``).
    record_bins : bool, default False
        Keep per-iteration :class:`HardnessBins` and α in ``bin_history_``
        (used by the Fig 3 reproduction).
    n_jobs : int, optional
        Threads for the chunked fallback scoring path; ``None``/1 serial,
        ``-1`` all CPUs. That path runs only for non-tree members: tree
        ensembles are scored (majority re-scoring in ``fit``, ``eval_set``
        and ``predict_proba``) by the single-threaded packed kernel, which
        ignores ``n_jobs``. Training stays iteration-sequential
        (Algorithm 1 is a cascade), so results are identical for every
        ``n_jobs``.
    random_state : int / RandomState, optional

    Notes
    -----
    Tree members are scored by the packed-forest kernel, both behind
    ``predict_proba`` and in the majority scoring inside ``fit`` (each new
    member routed by node partition over a column-major copy of the
    majority, raw thresholds, no rank codes). Both are bit-identical to the
    per-tree loops that score every other kind of member.

    Attributes
    ----------
    estimators_ : fitted base models (trained on the internal 0/1 encoding).
    classes_ : sorted array of the two original labels; ``predict`` returns
        values from it and ``predict_proba`` columns follow its order.
        Arbitrary binary label alphabets ({-1, 1}, strings, ...) are
        accepted: ``fit`` maps the rarer label (tie → the second sorted
        label) to the internal minority code 1.
    minority_class_ / majority_class_ : the original labels assigned to the
        internal minority (1) / majority (0) codes.
    n_training_samples_ : total training samples over all base fits.
    train_curve_ : per-iteration eval AUCPRC (only with ``fit(..., eval_set)``).
    bin_history_ : list of 3-tuples ``(alpha, majority_bins, subset_bins)``
        (only with ``record_bins=True``) — the Fig 3 data.

    Examples
    --------
    >>> from repro.core import SelfPacedEnsembleClassifier
    >>> from repro.datasets import make_checkerboard
    >>> X, y = make_checkerboard(n_minority=100, n_majority=1000, random_state=0)
    >>> spe = SelfPacedEnsembleClassifier(n_estimators=10, random_state=0).fit(X, y)
    >>> proba = spe.predict_proba(X)[:, 1]
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        k_bins: int = 20,
        hardness: Union[str, Callable] = "absolute",
        alpha_schedule: Union[str, Callable] = "tan",
        include_cold_start: bool = True,
        record_bins: bool = False,
        n_jobs: Optional[int] = None,
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.k_bins = k_bins
        self.hardness = hardness
        self.alpha_schedule = alpha_schedule
        self.include_cold_start = include_cold_start
        self.record_bins = record_bins
        self.n_jobs = n_jobs
        self.random_state = random_state

    # ------------------------------------------------------------------ #
    def _resolve_schedule(self) -> Callable[[int, int], float]:
        if callable(self.alpha_schedule):
            return self.alpha_schedule
        try:
            return _SCHEDULES[self.alpha_schedule]
        except KeyError:
            raise ValueError(
                f"Unknown alpha_schedule {self.alpha_schedule!r}; expected one "
                f"of {sorted(_SCHEDULES)} or a callable (i, n) -> alpha"
            ) from None

    def _proba_pos(self, model, X: np.ndarray) -> np.ndarray:
        """Minority-class probability, robust to single-class base fits.

        Base models are always trained on the internal 0/1 encoding
        (0 = majority, 1 = minority) regardless of the original label
        alphabet, so the class vector here is the internal one — column 1 is
        the minority probability whatever ``classes_`` holds. Scores the
        ``eval_set``, every member in the block-streaming exact trainer,
        and non-tree members over the in-memory majority (tree members
        there go through :meth:`InMemoryMajorityAccess.score`).
        """
        return ensemble_predict_proba(
            [model],
            X,
            np.array([0, 1]),  # the internal encoding, not classes_
            n_jobs=self.n_jobs,
        )[:, 1]

    # ------------------------------------------------------------------ #
    def fit(self, X, y, eval_set: Optional[Tuple] = None) -> "SelfPacedEnsembleClassifier":
        """Fit the ensemble.

        With ``eval_set=(X_e, y_e)`` the running ensemble's AUCPRC on the
        eval data is recorded after every iteration in ``train_curve_``
        (the paper's Fig 5 training curves).
        """
        X, y, rng = self._validate(X, y)
        maj_idx = np.flatnonzero(y == 0)
        min_idx = np.flatnonzero(y == 1)
        if len(min_idx) == 0 or len(maj_idx) == 0:
            raise ValueError("SPE requires both classes present (0=majority, 1=minority)")
        majority = InMemoryMajorityAccess(X, maj_idx, self._proba_pos)
        self._fit_loop(majority, X[min_idx], rng, eval_set)
        return self

    def _check_params(self) -> None:
        if self.k_bins < 1:
            raise ValueError("k_bins must be >= 1")
        super()._check_params()

    def _fit_loop(
        self,
        majority,
        X_min: np.ndarray,
        rng: np.random.RandomState,
        eval_set: Optional[Tuple],
    ) -> None:
        """Algorithm 1 against the majority seam — the only loop that
        trains SPE members.

        ``majority`` supplies ``cold_start(n, rng)`` (line 2: ``n`` uniform
        majority rows), ``draw(hardness_fn, k_bins, alpha, n, rng)`` (lines
        5–9: hardness of the running ensemble, bins, α-weighted
        under-sample; returns the rows, the majority's bins and the
        subset's hardness) and ``add(model)`` (fold a member into what the
        next ``draw`` reads). The exact trainers' seam is
        :class:`_ExactMajority`; ``mode="reservoir"`` supplies a streaming
        one. The α schedule, member fits, RNG consumption order,
        ``bin_history_`` and ``train_curve_`` live here once, so the
        trainers cannot drift apart.
        """
        hardness_fn = resolve_hardness(self.hardness)
        schedule = self._resolve_schedule()
        n_min = len(X_min)

        self.estimators_: List = []
        self.n_training_samples_ = 0
        # One entry per recorded iteration: (alpha, majority_bins, subset_bins)
        # — the bins over the full majority hardness and over the selected
        # subset's hardness (shape pinned by tests/test_core_self_paced.py).
        self.bin_history_: List[Tuple[float, HardnessBins, HardnessBins]] = []
        self.train_curve_: List[float] = []
        if eval_set is not None:
            X_eval = check_array(np.asarray(eval_set[0], dtype=float))
            # Eval labels arrive in the original alphabet; AUCPRC needs the
            # internal 0/1 codes.
            y_eval = self._encode_labels(np.asarray(eval_set[1]))
            proba_eval = None

        sample_fn = partial(_majority_union_minority_sample, X_min=X_min)
        make_model = partial(make_member_model, estimator=self.estimator)
        # Schedule convention: α_i = tan(π/2 · i/n) with n = n_estimators,
        # the paper's tan(iπ/2n). Every trained iteration gets a finite α;
        # the π/2 clamp inside the schedule guards only the i = n limit.
        for i in range(self.n_estimators):
            if i == 0:
                X_sub = majority.cold_start(n_min, rng)
            else:
                alpha = schedule(i, self.n_estimators)
                with telemetry.stage_timer("self_paced_sampling"):
                    X_sub, bins, h_sub = majority.draw(
                        hardness_fn, self.k_bins, alpha, n_min, rng
                    )
                if self.record_bins:
                    sub_bins = cut_hardness_bins(
                        h_sub if len(h_sub) else np.zeros(1), self.k_bins
                    )
                    self.bin_history_.append((alpha, bins, sub_bins))
            with telemetry.stage_timer("member_fit"):
                model, n_trained = fit_ensemble_member(
                    i, rng, X_sub, None, sample_fn, make_model
                )
            self.estimators_.append(model)
            self.n_training_samples_ += n_trained
            # Only a later draw reads the majority state, so the last
            # member is never added (never scored over the majority).
            if i < self.n_estimators - 1:
                majority.add(model)
            if eval_set is not None:
                latest_eval = self._proba_pos(model, X_eval)
                proba_eval = _running_mean(proba_eval, latest_eval, i + 1)
                self._record_eval(y_eval, proba_eval)

    def _record_eval(self, y_eval: np.ndarray, proba_eval: np.ndarray) -> None:
        from ..metrics import average_precision_score

        self.train_curve_.append(float(average_precision_score(y_eval, proba_eval)))

    # ------------------------------------------------------------------ #
    def _voting_estimators(self) -> List:
        if self.include_cold_start or len(self.estimators_) == 1:
            return self.estimators_
        return self.estimators_[1:]

    # The base's predict_proba, repeated so perfbench's wrapper of this
    # module's ensemble_predict_proba sees it; goes with ROADMAP item 6.
    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        internal = ensemble_predict_proba(
            self._voting_estimators(),
            X,
            np.array([0, 1]),  # members are fitted on the internal encoding
            n_jobs=self.n_jobs,
        )
        return self._decode_proba(internal)
