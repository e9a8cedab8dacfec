"""Span arithmetic and installation of the wrappers."""

import numpy as np
import pytest

from spans import Tracer, covered_time, layer_metrics, self_times

# index: name, start, end, parent
#   0 root   [0, 10]
#   1 a      [1, 4]    child of root
#   2 b      [3, 6]    child of root, overlapping a (spans from two threads)
#   3 a1     [1.5, 2]  child of a
#   4 c      [8, 12]   child of root, running past its parent's end
#   5 other  [20, 21]  a second root
PARENT = np.array([-1, 0, 0, 1, 0, -1])
START = np.array([0.0, 1.0, 3.0, 1.5, 8.0, 20.0])
END = np.array([10.0, 4.0, 6.0, 2.0, 12.0, 21.0])


def test_self_time_subtracts_union_of_children():
    got = self_times(PARENT, START, END)
    # root: 10 minus the union [1, 6] and the clipped [8, 10]
    assert got == pytest.approx([3.0, 2.5, 3.0, 0.5, 4.0, 1.0])


def test_self_times_partition_the_root_intervals_when_nested():
    # strictly nested spans: the self times add up to the roots' durations
    parent = np.array([-1, 0, 1, 1, 0])
    start = np.array([0.0, 1.0, 1.5, 3.0, 6.0])
    end = np.array([10.0, 5.0, 2.5, 4.0, 9.0])
    assert self_times(parent, start, end).sum() == pytest.approx(10.0)


def test_covered_time_counts_nested_calls_once():
    names = ["f", "g"]
    name_id = np.array([0, 0, 0, 1])
    start = np.array([0.0, 1.0, 5.0, 0.5])
    end = np.array([4.0, 2.0, 6.0, 9.0])
    assert covered_time(names, name_id, start, end, ("f",)) == pytest.approx(5.0)
    assert covered_time(names, name_id, start, end, ("f", "g")) == pytest.approx(9.0)
    assert covered_time(names, name_id, start, end, ("h",)) == 0.0


def test_wrapped_calls_record_parents_and_self_time():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.wrap(leaf, "multiindex.leaf", "multiindex")

    def outer(x):
        return wrapped_leaf(wrapped_leaf(x))

    wrapped_outer = tracer.wrap(outer, "derivatives.outer", "derivatives")
    assert wrapped_outer(1) == 3
    name_id, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name_id] == [
        "derivatives.outer", "multiindex.leaf", "multiindex.leaf"]
    assert list(parent) == [-1, 0, 0]
    m = layer_metrics(tracer, rounds=1)
    assert m["derivatives.calls"] == 1 and m["multiindex.calls"] == 2
    total = end[0] - start[0]
    assert m["derivatives.self_s"] + m["multiindex.self_s"] == pytest.approx(total)


def test_install_wraps_every_lookup_site_once_and_uninstall_restores():
    import asymlab.asymmetry as asymmetry
    import asymlab.derivatives as derivatives
    from asymlab.generators import GeneratorSpec

    before_call = GeneratorSpec.__dict__["__call__"]
    before_jac = asymmetry.jacobian
    tracer = Tracer().install()
    try:
        assert asymmetry.jacobian is not before_jac
        assert asymmetry.jacobian.__wrapped__ is derivatives.jacobian
        # a module's own name for the function is left alone
        assert derivatives.jacobian is before_jac
        assert GeneratorSpec.__dict__["__call__"].__wrapped__ is before_call
    finally:
        tracer.uninstall()
    assert asymmetry.jacobian is before_jac
    assert GeneratorSpec.__dict__["__call__"] is before_call


def test_generator_points_and_calls_are_counted():
    from asymlab.generators import preset_generator

    spec = preset_generator(1, rng_seed=0)
    with Tracer() as tracer:
        for z in np.zeros((3, spec.partition.latent_dim)):
            spec(z)
    m = layer_metrics(tracer, rounds=1)
    assert m["generators.calls"] == 3 and m["generators.points"] == 3

