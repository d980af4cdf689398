"""Feature extraction: transaction access spec -> routing class key.

The router classifies on *declared* information only — the immutable
:class:`~repro.core.transaction.AccessSpec` fixed at origination — so
classification is a pure function of the transaction, computable at
BEGIN, identical on every attempt, and free of any runtime state that
could differ across parallelism settings.

Four binary features make up the class key:

* ``ro``/``upd`` — declared read-only (no access updates anything).
* ``hot``/``cold`` — whether at least ``hot_access_threshold`` of the
  accesses fall in each partition's hot set (the lowest
  ``hot_page_fraction`` of page indices — the Zipf option's
  low-index-hot convention, see ``access_skew``).
* ``dist``/``local`` — more than one cohort (distributed execution).
* ``large``/``small`` — read set at least ``large_read_set`` pages.

The key is their dash-joined concatenation, e.g. ``upd-hot-local-small``
for the classic hot-key single-partition update.
"""

from __future__ import annotations

from repro.core.config import RouterConfig
from repro.core.transaction import Transaction

__all__ = ["FeatureExtractor"]


class FeatureExtractor:
    """Deterministic transaction classifier over declared features."""

    def __init__(self, pages_per_partition: int, config: RouterConfig):
        self.config = config
        #: Page indices below this bound count as "hot" (at least one
        #: page is always hot, so tiny partitions still classify).
        self.hot_limit = max(
            1, int(config.hot_page_fraction * pages_per_partition)
        )

    def is_read_only(self, transaction: Transaction) -> bool:
        """Declared read-only: no access in the spec updates a page."""
        return transaction.spec.num_updates == 0

    def classify(self, transaction: Transaction) -> str:
        """The routing class key for ``transaction``."""
        spec = transaction.spec
        total = 0
        hot = 0
        for cohort in spec.cohorts:
            for access in cohort.accesses:
                total += 1
                if access.page.page < self.hot_limit:
                    hot += 1
        is_hot = (
            total > 0
            and hot / total >= self.config.hot_access_threshold
        )
        return "-".join(
            (
                "ro" if spec.num_updates == 0 else "upd",
                "hot" if is_hot else "cold",
                "dist" if len(spec.cohorts) > 1 else "local",
                (
                    "large"
                    if spec.num_reads >= self.config.large_read_set
                    else "small"
                ),
            )
        )
