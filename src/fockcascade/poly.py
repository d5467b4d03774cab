"""Sparse polynomials in bosonic creation operators.

A multimode Fock state is represented as ``p(a^dag_1, ..., a^dag_M)|0>`` where
``p`` is a :class:`CreationPolynomial`: a finite complex-weighted sum of
monomials, each monomial an occupation multi-index over the registry modes.
Creation operators commute, so a monomial is just its exponent tuple and
multiplication adds exponents.

The module also provides the ladder-operator combinatorics the rest of the
package is built on:

* ``vacuum_inner_product(p, q)`` evaluates ``<0| p^dag q |0>`` in closed form
  (matching monomials weighted by the product of per-mode factorials),
* ``_ordering_weight(k, m, n)`` is the integer ``k! C(m,k) C(n,k)`` with which
  the k-fold contraction enters ``c^m c^dag^n`` in normal order; the
  reordering recursion of ``nogo`` is built from it.

Coefficients are complex doubles.  A polynomial keeps only the terms with
``|c| > PRUNE_TOL * max|c|``, so floating cancellation residue does not
accumulate.  Terms are dropped only where coefficients are computed: the
validating constructor, ``+``, ``*``, ``scale``, ``network.substitute``,
``measurement.product_coefficients`` and the cascade's level pass (at each
input's peak after the network).  A subset of a polynomial's terms, its
negation and its conjugate meet the bound already, so ``-p``,
``p.conjugate()`` and the regroupings in ``measurement`` drop nothing.

The public constructor validates every exponent tuple.  Arithmetic on
validated polynomials builds its result through
:meth:`CreationPolynomial._trusted`, which skips those checks; ``*`` and
``network.substitute`` build theirs through :meth:`CreationPolynomial._capped`,
which checks the photon cap on the terms that survive pruning and names the
largest.  So no exponent ever exceeds the cap: the validating constructor,
``*``, ``network.substitute``, ``measurement.product_coefficients`` and the
cascade's level pass (on the entries it keeps, by the same rule) all keep it
there, and factorials are read from a table that ends at the largest cap
without a range check.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import operator
from typing import Iterator, Mapping, Sequence

from .errors import PhotonCapError
from .modes import MAX_PHOTON_CAP, ModeRegistry

Exponents = tuple[int, ...]

PRUNE_TOL = 1e-12
_FACTORIAL = [float(math.factorial(n)) for n in range(MAX_PHOTON_CAP + 1)]


def sig12(x: float) -> float:
    """``x`` at twelve significant digits, the precision of every JSON report."""
    return float(f"{x:.12g}")


def report_value(value):
    """``value`` in the form of every JSON report.

    ``None``, ints (bools too) and strings pass through, a float goes
    through :func:`sig12`, a tuple or list becomes a list, a complex number
    ``{"re", "im"}``, and a dataclass a dict of its fields.  A field is
    written under its ``metadata["json"]`` name when that is set, and left
    out when that is ``None``.
    """
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return sig12(value)
    if isinstance(value, (tuple, list)):
        return [report_value(v) for v in value]
    if isinstance(value, complex):
        return {"re": sig12(value.real), "im": sig12(value.imag)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            key = f.metadata.get("json", f.name)
            if key is not None:
                out[key] = report_value(getattr(value, f.name))
        return out
    raise TypeError(f"no report form for {type(value).__name__}")


def _graded_lex(item: tuple[Exponents, complex]):
    exps = item[0]
    return (sum(exps), exps)


class CreationPolynomial:
    """Immutable sparse polynomial over the creation operators of a registry."""

    __slots__ = ("registry", "_terms")

    def __init__(
        self,
        registry: ModeRegistry,
        terms: Mapping[Exponents, complex] | None = None,
    ):
        self.registry = registry
        size = registry.size
        cap = registry.photon_cap
        cleaned: dict[Exponents, complex] = {}
        if terms:
            peak = max(abs(c) for c in terms.values())
            cutoff = PRUNE_TOL * peak
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != size:
                    raise ValueError(
                        f"exponent tuple {exps} does not match registry size {size}"
                    )
                for e in exps:
                    if e < 0 or int(e) != e:
                        raise ValueError(f"invalid exponent {e} in {exps}")
                    if e > cap:
                        raise PhotonCapError(
                            f"occupation {e} exceeds photon cap {cap}"
                        )
                c = complex(coeff)
                if not cmath.isfinite(c):
                    raise ValueError(f"coefficient {c} of {exps} is not finite")
                if abs(c) > cutoff and c != 0:
                    cleaned[tuple(int(e) for e in exps)] = c
        self._terms = cleaned

    @classmethod
    def _trusted(
        cls, registry: ModeRegistry, terms: dict[Exponents, complex], pruned: bool = False
    ) -> "CreationPolynomial":
        """Polynomial over exponent tuples known to be valid for ``registry``.

        Only for internal arithmetic whose keys come from validated
        polynomials and whose values are complex; the exponent checks are not
        repeated.  Computed values are pruned as in ``__init__``; regrouped,
        negated or conjugated terms meet that bound already (``pruned=True``).
        """
        obj = cls.__new__(cls)
        obj.registry = registry
        if terms and not pruned:
            cutoff = PRUNE_TOL * max(abs(c) for c in terms.values())
            terms = {e: c for e, c in terms.items() if abs(c) > cutoff and c != 0}
        obj._terms = terms
        return obj

    @classmethod
    def _capped(
        cls, registry: ModeRegistry, terms: dict[Exponents, complex], degree: int
    ) -> "CreationPolynomial":
        """:meth:`_trusted` for an arithmetic result of total degree at most
        ``degree``: when that passes the photon cap, the terms that survive
        pruning are checked against it, and the error names the largest."""
        obj, cap = cls._trusted(registry, terms), registry.photon_cap
        over = [e for exps in obj._terms for e in exps if e > cap] if degree > cap else []
        if over:
            raise PhotonCapError(f"occupation {max(over)} exceeds photon cap {cap}")
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, registry: ModeRegistry) -> "CreationPolynomial":
        return cls(registry)

    @classmethod
    def constant(cls, registry: ModeRegistry, value: complex = 1.0) -> "CreationPolynomial":
        return cls(registry, {(0,) * registry.size: complex(value)})

    @classmethod
    def mode(cls, registry: ModeRegistry, label: str, power: int = 1) -> "CreationPolynomial":
        """The monomial (a^dag_label)^power."""
        exps = [0] * registry.size
        exps[registry.index(label)] = int(power)
        return cls(registry, {tuple(exps): 1.0 + 0.0j})

    @classmethod
    def monomial(
        cls,
        registry: ModeRegistry,
        occupations: Mapping[str, int],
        coeff: complex = 1.0,
    ) -> "CreationPolynomial":
        """A single term with the given per-label occupations."""
        exps = [0] * registry.size
        for label, power in occupations.items():
            exps[registry.index(label)] = int(power)
        return cls(registry, {tuple(exps): complex(coeff)})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[Exponents, complex]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Exponents, complex]]:
        """Terms in graded lexicographic order (canonical output order)."""
        return sorted(self._terms.items(), key=_graded_lex)

    def coefficient(self, exponents: Sequence[int]) -> complex:
        return self._terms.get(tuple(exponents), 0.0 + 0.0j)

    @property
    def degree(self) -> int:
        """Maximal total degree over stored terms (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        """True when all terms share the same total degree (vacuously for 0)."""
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def degree_in(self, label: str) -> int:
        """Maximal exponent of one mode across all terms."""
        k = self.registry.index(label)
        if not self._terms:
            return 0
        return max(e[k] for e in self._terms)

    def support(self) -> set[str]:
        """Labels of modes that appear with a nonzero exponent."""
        out: set[str] = set()
        for exps in self._terms:
            for k, e in enumerate(exps):
                if e:
                    out.add(self.registry.labels[k])
        return out

    def max_abs_coeff(self) -> float:
        if not self._terms:
            return 0.0
        return max(abs(c) for c in self._terms.values())

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "CreationPolynomial") -> "CreationPolynomial":
        self.registry.require_same(other.registry)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            out[exps] = out.get(exps, 0.0) + coeff
        return CreationPolynomial._trusted(self.registry, out)

    def __sub__(self, other: "CreationPolynomial") -> "CreationPolynomial":
        return self + (-other)

    def __neg__(self) -> "CreationPolynomial":
        return CreationPolynomial._trusted(
            self.registry, {e: -c for e, c in self._terms.items()}, pruned=True
        )

    def __mul__(self, other) -> "CreationPolynomial":
        if isinstance(other, CreationPolynomial):
            self.registry.require_same(other.registry)
            out: dict[Exponents, complex] = {}
            _mul_into(out, self, other)
            return CreationPolynomial._capped(self.registry, out, self.degree + other.degree)
        return self.scale(other)

    def __rmul__(self, other) -> "CreationPolynomial":
        return self.scale(other)

    def scale(self, factor: complex) -> "CreationPolynomial":
        factor = complex(factor)
        if factor == 0:
            return CreationPolynomial.zero(self.registry)
        return CreationPolynomial._trusted(
            self.registry, {e: factor * c for e, c in self._terms.items()}
        )

    def conjugate(self) -> "CreationPolynomial":
        """Complex-conjugate all coefficients (exponents unchanged)."""
        return CreationPolynomial._trusted(
            self.registry, {e: c.conjugate() for e, c in self._terms.items()}, pruned=True
        )

    def isclose(self, other: "CreationPolynomial", tol: float = 1e-9) -> bool:
        """Termwise comparison at absolute tolerance scaled by the larger peak."""
        self.registry.require_same(other.registry)
        scale = max(self.max_abs_coeff(), other.max_abs_coeff(), 1.0)
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tol * scale
            for k in keys
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "modes": list(self.registry.labels),
            "terms": [
                {"exp": list(exps), "re": coeff.real, "im": coeff.imag}
                for exps, coeff in self.sorted_terms()
            ],
        }

    def __repr__(self) -> str:
        if not self._terms:
            return "CreationPolynomial(0)"
        parts = []
        for exps, coeff in self.sorted_terms()[:4]:
            factors = [
                f"{lab}^{e}" if e > 1 else lab
                for lab, e in zip(self.registry.labels, exps)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(f"({coeff:.4g})*{body}")
        tail = " + ..." if len(self._terms) > 4 else ""
        return f"CreationPolynomial({' + '.join(parts)}{tail})"


def _mul_into(
    out: dict[Exponents, complex], left: CreationPolynomial, right: CreationPolynomial
) -> None:
    """Add every pair product of ``left`` and ``right`` into ``out`` (unpruned)."""
    for ea, ca in left._terms.items():
        for eb, cb in right._terms.items():
            key = tuple(map(operator.add, ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb


def vacuum_inner_product(p: CreationPolynomial, q: CreationPolynomial) -> complex:
    """``<0| p^dag q |0>``, conjugate-linear in the first argument.

    Distinct monomials create orthogonal Fock states, so only exponent tuples
    common to both polynomials contribute, each weighted by the product of
    per-mode factorials ``prod_i m_i!``.
    """
    p.registry.require_same(q.registry)
    swap = len(q._terms) < len(p._terms)
    small, large = (q._terms, p._terms) if swap else (p._terms, q._terms)
    total = 0.0 + 0.0j
    for exps, c in small.items():
        other = large.get(exps)
        if other is not None:
            cp, cq = (other, c) if swap else (c, other)
            total += cp.conjugate() * cq * math.prod(map(_FACTORIAL.__getitem__, exps))
    return total


def vacuum_norm_sq(p: CreationPolynomial) -> float:
    """Squared norm of ``p|0>``."""
    return vacuum_inner_product(p, p).real


def _ordering_weight(k: int, m: int, n: int) -> int:
    """``k! C(m, k) C(n, k)``: the ways to contract k of m annihilators with
    k of n creators when ``c^m c^dag^n`` is normally ordered."""
    return math.factorial(k) * math.comb(m, k) * math.comb(n, k)
