"""Algorithm 1 — enumeration of algebraic (strength-reduction) variants.

The paper's Algorithm 1 repeatedly (a) sums out any index occurring in only
one remaining term and (b) picks a pair of terms to multiply into a new
temporary, performing a depth-first search over the pair choices to
enumerate exhaustively.  The set of outcomes is exactly the set of *full
binary contraction trees* over the original terms (with eager summation
folded into each node), so we enumerate those directly: for ``n`` terms
there are ``(2n-3)!!`` distinct trees — 15 for the paper's four-term
Eqn.(1), matching the "fifteen different versions" reported in Section II.

Enumeration is exhaustive but deduplicated by commutative canonicalization,
and deterministic (trees come out in a stable order), which the autotuner
relies on for reproducible variant numbering.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.contraction import Contraction
from repro.core.expr_tree import ContractionTree, Leaf, Node
from repro.errors import ContractionError

__all__ = ["enumerate_trees", "count_trees", "double_factorial"]


def double_factorial(k: int) -> int:
    """``k!! = k * (k-2) * (k-4) * ...`` (1 for ``k <= 0``)."""
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def count_trees(nterms: int) -> int:
    """Number of distinct full binary contraction trees over ``nterms`` terms.

    ``(2n-3)!!``: 1, 1, 3, 15, 105, 945, ... for n = 1, 2, 3, 4, 5, 6.
    """
    if nterms < 1:
        raise ContractionError("a contraction has at least one term")
    return double_factorial(2 * nterms - 3)


def _trees_over(leaves: tuple[int, ...]) -> Iterator[Leaf | Node]:
    """Yield every canonical full binary tree whose leaf set is ``leaves``.

    Canonical form: the child subtree containing the smallest leaf is always
    the left child, so each commutative equivalence class appears exactly
    once.  ``leaves`` must be sorted.
    """
    if len(leaves) == 1:
        yield Leaf(leaves[0])
        return
    anchor = leaves[0]
    rest = leaves[1:]
    # Choose which of the remaining leaves join the anchor's side.  Iterating
    # subsets by bitmask in increasing order keeps the output deterministic.
    n = len(rest)
    for mask in range(2**n):
        with_anchor = (anchor,) + tuple(rest[i] for i in range(n) if mask >> i & 1)
        without = tuple(rest[i] for i in range(n) if not mask >> i & 1)
        if not without:
            continue  # the anchor side must not swallow everything
        # To avoid double counting {L,R} vs {R,L}: the anchor is always on
        # the left, and every split is generated once because the non-anchor
        # side is determined by the mask complement.
        for left in _trees_over(with_anchor):
            for right in _trees_over(without):
                yield Node(left, right)


def enumerate_trees(
    contraction: Contraction,
    max_variants: int | None = None,
) -> list[ContractionTree]:
    """Enumerate all strength-reduction variants of ``contraction``.

    Parameters
    ----------
    contraction:
        The source statement.
    max_variants:
        Optional cap; enumeration stops once this many trees were produced
        (useful for contractions with many terms, where ``(2n-3)!!``
        explodes).

    Returns
    -------
    list[ContractionTree]
        Deterministically ordered, commutatively-deduplicated variants.
        The naive single-node ordering (left-deep tree in term order) is
        always present.
    """
    nterms = len(contraction.terms)
    leaves = tuple(range(nterms))
    seen: set[Leaf | Node] = set()
    out: list[ContractionTree] = []
    for root in _trees_over(leaves):
        canon = root.canonical()
        if canon in seen:
            continue
        seen.add(canon)
        out.append(ContractionTree(contraction, canon))
        if max_variants is not None and len(out) >= max_variants:
            break
    return out


def left_deep_tree(contraction: Contraction) -> ContractionTree:
    """The source-order left-deep tree ``((t0 t1) t2) ...`` (the naive plan)."""
    root: Leaf | Node = Leaf(0)
    for t in range(1, len(contraction.terms)):
        root = Node(root, Leaf(t))
    return ContractionTree(contraction, root.canonical() if isinstance(root, Node) else root)
