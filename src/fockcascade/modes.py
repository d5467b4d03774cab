"""Mode bookkeeping for multimode bosonic systems.

A :class:`ModeRegistry` fixes an ordered set of mode labels together with the
photon cap shared by every polynomial built over it; the pruning threshold,
``poly.PRUNE_TOL``, is the same for every registry.  Registries are
immutable; removing a measured mode produces a new, smaller registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RegistryMismatchError

DEFAULT_PHOTON_CAP = 20
MAX_PHOTON_CAP = 170  # the largest n whose n! is a finite double


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered collection of uniquely labelled bosonic modes.

    The registry index of a label is its position in ``labels``; indices are
    dense in ``[0, size)``.  ``photon_cap`` bounds the per-mode occupation any
    polynomial over this registry may carry (at most MAX_PHOTON_CAP, so every
    factorial it needs is a finite double).
    """

    labels: tuple[str, ...]
    photon_cap: int = DEFAULT_PHOTON_CAP
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _without: dict[str, "ModeRegistry"] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A zero-mode registry is the legal end state of measuring out every
        # mode of a cascade; polynomials over it are plain scalars.
        labels = tuple(str(lab) for lab in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels in {labels}")
        if not 1 <= self.photon_cap <= MAX_PHOTON_CAP:
            raise ValueError(
                f"photon cap must be between 1 and {MAX_PHOTON_CAP}, got {self.photon_cap}"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {lab: k for k, lab in enumerate(labels)})
        object.__setattr__(self, "_without", {})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"mode {label!r} not in registry {self.labels}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def without(self, label: str) -> "ModeRegistry":
        """Registry with one mode removed, order and photon cap preserved
        (built once per label and kept)."""
        if label not in self._without:
            self.index(label)  # KeyError for a label not in the registry
            kept = tuple(lab for lab in self.labels if lab != label)
            self._without[label] = ModeRegistry(kept, self.photon_cap)
        return self._without[label]

    def require_same(self, other: "ModeRegistry") -> None:
        """Raise RegistryMismatchError unless ``other`` is structurally equal."""
        if self != other:
            raise RegistryMismatchError(
                f"registries differ: {self.labels} (cap={self.photon_cap}) vs "
                f"{other.labels} (cap={other.photon_cap})"
            )
