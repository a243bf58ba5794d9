"""Property-based tests (hypothesis) on the core invariants.

The central soundness property of the whole system: *every* algebraic
variant of *every* contraction, mapped by *any* legal configuration,
computes the same tensor as numpy.einsum.  These tests generate random
contractions and random configurations and check exactly that, along with
structural invariants of the enumeration, the spaces, and the surrogate.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.contraction import Contraction
from repro.core.opcount import tree_operation_count
from repro.core.strength_reduction import count_trees, enumerate_trees
from repro.core.tensor import TensorRef
from repro.core.variants import lower_tree_to_tcr
from repro.errors import ConfigurationError
from repro.gpusim.executor import execute_program
from repro.surf.binarize import FeatureBinarizer
from repro.surf.forest import ExtraTreesRegressor
from repro.tcr.decision import (
    _serial_orders_factory,
    decide_kernel_space,
    decide_search_space,
)
from repro.tcr.program import TCRProgram
from repro.tcr.space import ONE, KernelConfig, TuningSpace
from repro.util.rng import StableHashPrefix, spawn_rng, stable_hash, stable_uniform

# ----------------------------------------------------------------------
# Random contraction generator
# ----------------------------------------------------------------------
_INDICES = ("i", "j", "k", "l", "m")


@st.composite
def contractions(draw, max_terms: int = 3) -> Contraction:
    """Random small contractions with 2..max_terms terms over <=5 indices."""
    n_idx = draw(st.integers(2, 5))
    indices = _INDICES[:n_idx]
    n_terms = draw(st.integers(2, max_terms))
    terms = []
    used: set[str] = set()
    for t in range(n_terms):
        rank = draw(st.integers(1, min(3, n_idx)))
        idx = tuple(
            draw(
                st.permutations(indices).map(lambda p: p[:rank])
            )
        )
        terms.append(TensorRef(f"a{t}", idx))
        used |= set(idx)
    # Output: a nonempty subset of the used indices, in random order.
    used_sorted = sorted(used)
    out_rank = draw(st.integers(1, len(used_sorted)))
    out_idx = tuple(draw(st.permutations(used_sorted)))[:out_rank]
    dims = {i: draw(st.integers(2, 4)) for i in sorted(used)}
    return Contraction(
        output=TensorRef("out", out_idx),
        terms=tuple(terms),
        dims=dims,
        name="prop",
    )


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestAlgebraicEquivalence:
    @given(contractions())
    @settings(max_examples=40, deadline=None)
    def test_every_variant_matches_einsum(self, c: Contraction):
        inputs = c.random_inputs(0)
        reference = c.evaluate(inputs)
        for tree in enumerate_trees(c):
            program = lower_tree_to_tcr(tree)
            np.testing.assert_allclose(
                program.evaluate(inputs), reference, atol=1e-9
            )

    @given(contractions())
    @settings(max_examples=30, deadline=None)
    def test_variant_count_formula(self, c: Contraction):
        assert len(enumerate_trees(c)) == count_trees(len(c.terms))

    @given(contractions())
    @settings(max_examples=30, deadline=None)
    def test_flop_counts_positive_and_bounded(self, c: Contraction):
        for tree in enumerate_trees(c):
            flops = tree_operation_count(tree)
            assert flops > 0
            # Each internal node's space is within the union space.
            assert flops <= 2 * (len(c.terms) + 2) * c.iteration_space()

    @given(contractions())
    @settings(max_examples=20, deadline=None)
    def test_tcr_text_round_trip(self, c: Contraction):
        for tree in enumerate_trees(c, max_variants=3):
            program = lower_tree_to_tcr(tree)
            again = TCRProgram.from_text(program.to_text())
            inputs = program.random_inputs(1)
            np.testing.assert_allclose(
                again.evaluate(inputs), program.evaluate(inputs)
            )


class TestMappingEquivalence:
    @given(contractions(max_terms=2), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_configs_match_einsum(self, c: Contraction, seed: int):
        inputs = c.random_inputs(0)
        reference = c.evaluate(inputs)
        [tree] = enumerate_trees(c, max_variants=1)
        program = lower_tree_to_tcr(tree)
        if any(not op.parallel_indices for op in program.operations):
            return  # scalar-valued kernels cannot be GPU-mapped
        space = TuningSpace([decide_search_space(program)])
        rng = spawn_rng(seed, "prop-config")
        for config in space.sample_pool(min(3, space.size()), rng):
            out = execute_program(program, config, inputs)
            np.testing.assert_allclose(
                out[program.output_name], reference, atol=1e-9,
                err_msg=config.describe(),
            )

    @given(contractions(max_terms=2))
    @settings(max_examples=20, deadline=None)
    def test_space_round_trip(self, c: Contraction):
        [tree] = enumerate_trees(c, max_variants=1)
        program = lower_tree_to_tcr(tree)
        if any(not op.parallel_indices for op in program.operations):
            return
        space = decide_search_space(program)
        size = space.size()
        for idx in {0, size // 2, size - 1}:
            assert space.index_of(space.config_at(idx)) == idx


def _nested_loop_configs(space, serial_orders_for) -> list[KernelConfig]:
    """The oracle: a kernel space's configurations in the nested-loop
    order of the decision algorithm, unroll varying fastest."""
    out = []
    for tx in space.tx_candidates:
        for ty in space.ty_candidates:
            for bx in space.bx_candidates:
                for by in space.by_candidates:
                    chosen = [v for v in (tx, ty, bx, by) if v != ONE]
                    if tx == ONE or len(set(chosen)) != len(chosen):
                        continue
                    for order in serial_orders_for(tuple(chosen)):
                        for uf in space.unroll_factors:
                            out.append(
                                KernelConfig(tx, ty, bx, by, tuple(order), uf)
                            )
    return out


class TestKernelSpaceProduct:
    @given(contractions(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_product_equals_the_enumeration(self, c: Contraction, permute: bool):
        """Families × unroll factors reproduce the nested-loop enumeration:
        length, order, every position, lookups and feature tables."""
        [tree] = enumerate_trees(c, max_variants=1)
        program = lower_tree_to_tcr(tree)
        for op in program.operations:
            if not op.parallel_indices:
                continue  # a scalar-valued kernel has no space
            space = decide_kernel_space(op, program.dims, permute)
            oracle = _nested_loop_configs(
                space, _serial_orders_factory(op, program.dims, permute)
            )
            assert len(space) == len(oracle)
            assert list(space) == oracle
            assert [space[i] for i in range(len(space))] == oracle
            with pytest.raises(IndexError):
                space[len(space)]
            assert [space.index_of(cfg) for cfg in oracle] == list(
                range(len(oracle))
            )
            first = oracle[0]
            for foreign in (
                replace(first, serial_order=first.serial_order + ("zz",)),
                replace(first, unroll=max(space.unroll_factors) + 1),
            ):
                with pytest.raises(ConfigurationError):
                    space.index_of(foreign)
            tables = space.feature_tables()
            for attr in ("tx", "ty", "bx", "by", "inner"):
                values = [
                    (cfg.innermost_serial or "-") if attr == "inner"
                    else getattr(cfg, attr)
                    for cfg in oracle
                ]
                codes, vocab = tables[attr]
                assert vocab == tuple(sorted(set(values)))
                assert codes.dtype == np.int64
                assert codes.tolist() == [vocab.index(v) for v in values]
            assert tables["unroll"].dtype == np.float64
            assert tables["unroll"].tolist() == [float(cfg.unroll) for cfg in oracle]


_LOOPS = ("i", "j", "k", "l", "a1", "b22")


@st.composite
def kernel_families(draw) -> list[KernelConfig]:
    """Configurations of one loop-nest family: any decomposition (``ONE``
    allowed in the Y slots), any serial order (possibly empty), and
    unroll factors up to two digits."""
    loop = st.sampled_from(_LOOPS)
    maybe_one = st.sampled_from(_LOOPS + (ONE,))
    tx, ty, bx, by = draw(loop), draw(maybe_one), draw(maybe_one), draw(maybe_one)
    serial = tuple(draw(st.lists(loop, max_size=3)))
    unrolls = draw(st.lists(st.integers(1, 16), min_size=1, max_size=6))
    return [KernelConfig(tx, ty, bx, by, serial, u) for u in unrolls]


class TestHashingProperties:
    @given(st.lists(st.one_of(st.integers(), st.text(), st.floats(allow_nan=False)), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_stable_hash_total_and_deterministic(self, parts):
        a = stable_hash(*parts)
        b = stable_hash(*parts)
        assert a == b
        assert 0 <= a < 2**64

    @given(kernel_families(), st.sampled_from(("GTX 980", "Tesla K20")), st.text(max_size=12))
    @example(
        [KernelConfig("i", ONE, "j", ONE, (), u) for u in (1, 10, 16)],
        "GTX 980", "Y[i j] = X[i j]",
    )
    @settings(max_examples=100, deadline=None)
    def test_family_prefix_hash_is_the_scalar_wobble(self, family, arch, op):
        """The tables absorb a family's prefix once and finish each
        configuration with its unroll digits: the scalar model's hash."""
        tables = StableHashPrefix("kernel", arch, op).uniform_tails(
            family[0].family_prefix(), [str(c.unroll) for c in family]
        )
        scalar = [stable_uniform("kernel", arch, op, c.describe()) for c in family]
        assert tables == scalar


class TestSurrogateProperties:
    @given(
        st.integers(10, 60),
        st.integers(2, 5),
        st.integers(0, 1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_forest_predictions_within_target_hull(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, d))
        y = rng.uniform(size=n)
        forest = ExtraTreesRegressor(n_estimators=5, seed=seed).fit(X, y)
        pred = forest.predict(rng.uniform(size=(20, d)))
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    @given(st.integers(1, 50))
    @settings(max_examples=15, deadline=None)
    def test_binarizer_row_sums(self, n):
        rng = np.random.default_rng(n)
        cats = ["a", "b", "c"]
        dicts = [
            {"p": cats[rng.integers(0, 3)], "u": int(rng.integers(1, 9))}
            for _ in range(n)
        ]
        b = FeatureBinarizer().fit(dicts)
        X = b.transform(dicts)
        cat_cols = [i for i, c in enumerate(b.columns) if c[0] == "p"]
        np.testing.assert_array_equal(X[:, cat_cols].sum(axis=1), np.ones(n))
