"""The AlgorithmSelector façade: train once, select per layer at runtime.

Wraps the random forest with the paper's protocol: 5-fold shuffled
cross-validation for the reported accuracy, then a final fit on the whole
dataset for deployment.  Also computes the paper's misprediction metric
(mean absolute percentage error in *layer time* when the wrong algorithm is
chosen — 20.4 % in the paper) and full-network slowdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NotFittedError
from repro.nn.layer import ConvSpec
from repro.selection.crossval import accuracy_score, kfold_indices
from repro.selection.dataset import SelectionDataset, build_dataset
from repro.selection.forest import RandomForestClassifier
from repro.simulator.hwconfig import HardwareConfig


@dataclass
class SelectorReport:
    """Cross-validated quality metrics of a trained selector."""

    fold_accuracies: list[float]
    misprediction_mape: float  # mean |layer-time error| on mispredictions
    n_points: int

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))

    def summary(self) -> str:
        accs = ", ".join(f"{a:.3f}" for a in self.fold_accuracies)
        return (
            f"5-fold accuracies: [{accs}] mean={self.mean_accuracy:.3f}; "
            f"misprediction layer-time MAPE={self.misprediction_mape:.1%} "
            f"({self.n_points} points)"
        )


class AlgorithmSelector:
    """Per-layer convolution-algorithm selection (Paper II §4.3)."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 10,
        max_features: int | str | None = 6,
        random_state: int = 0,
    ) -> None:
        # hyperparameters tuned as in Paper II §4.3: depth-10 trees with
        # bootstrapping; half the 12 features per split balances fit and
        # fold-to-fold variance on the 448-point dataset
        self.model = RandomForestClassifier(
            n_estimators=n_estimators,
            max_depth=max_depth,
            max_features=max_features,
            bootstrap=True,
            random_state=random_state,
        )
        self.random_state = random_state
        self._fitted = False
        self.report: SelectorReport | None = None

    # ------------------------------------------------------------------ #
    def train(self, dataset: SelectionDataset | None = None) -> SelectorReport:
        """Cross-validate (5-fold, shuffled) then fit on the full dataset."""
        dataset = dataset or build_dataset()
        X, y = dataset.X, dataset.y
        fold_accs: list[float] = []
        regrets: list[float] = []
        for train, test in kfold_indices(
            len(X), k=5, shuffle=True, random_state=self.random_state
        ):
            model = RandomForestClassifier(
                n_estimators=self.model.n_estimators,
                max_depth=self.model.max_depth,
                max_features=self.model.max_features,
                random_state=self.random_state,
            )
            model.fit(X[train], y[train])
            pred = model.predict(X[test])
            fold_accs.append(accuracy_score(y[test], pred))
            for row, p in zip(test, pred):
                if p != y[row]:
                    regrets.append(dataset.regret(int(row), str(p)))
        self.model.fit(X, y)
        self._fitted = True
        self.report = SelectorReport(
            fold_accuracies=fold_accs,
            misprediction_mape=float(np.mean(regrets)) if regrets else 0.0,
            n_points=len(X),
        )
        return self.report

    # ------------------------------------------------------------------ #
    def features(self, spec: ConvSpec, hw: HardwareConfig) -> np.ndarray:
        return np.asarray(
            [[float(hw.vlen_bits), float(hw.l2_mib)] + spec.features()]
        )

    def select(self, spec: ConvSpec, hw: HardwareConfig) -> str:
        """Predict the best algorithm for one layer on one configuration."""
        if not self._fitted:
            raise NotFittedError("AlgorithmSelector.train() has not been called")
        return str(self.model.predict(self.features(spec, hw))[0])

    def select_network(
        self, specs: list[ConvSpec], hw: HardwareConfig
    ) -> dict[int, str]:
        """Per-layer predictions keyed by the layer's conv ordinal."""
        return {spec.index: self.select(spec, hw) for spec in specs}
