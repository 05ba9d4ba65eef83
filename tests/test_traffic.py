"""The branch map of ``tests/traffic.py``: each ``if`` whose test ran and
always went one way, from the line arcs of one traced run."""

import importlib.util

import traffic

SOURCE = '''def f(x, flag):
    if x > 0:
        y = x
    else:
        y = -x
    if flag:
        y += 1
    if (y >
            100):
        y = 100
    for k in range(2):
        if k < 5:
            y += k
    if y: return y
    return 0


def g(x):
    if x:
        raise ValueError(x)
    return 1


def h(x):
    if g(x):
        return 1
    return 0


def unused(x):
    if x:
        return 1
    return 0
'''


def _load(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the module body runs here, untraced
    return str(path), module


def test_the_branch_map_lists_each_if_that_went_one_way(tmp_path):
    path, module = _load(tmp_path)

    def run():
        module.f(1, True)
        module.f(2, True)
        module.h(0)
        try:
            module.h(1)
        except ValueError:
            pass

    taken = traffic.arcs(run, tmp_path)
    # f's first and second tests and the loop's test always entered their
    # bodies, and the two-line test never did.  h's test entered its body
    # once; the call that raised inside it took no arc out of the test.  The
    # one-line ``if`` is left out, and so are g's test, which went both
    # ways, and unused's, which never ran.
    assert traffic.one_way(SOURCE, taken[path]) == [(2, True), (6, True), (8, False), (12, True), (25, True)]
    # The line map reads the same run through its arcs.
    assert traffic.lines(taken)[path] == traffic.trace(run, tmp_path)[path]


def test_a_test_that_went_both_ways_is_not_listed(tmp_path):
    path, module = _load(tmp_path)
    taken = traffic.arcs(lambda: (module.f(1, False), module.f(-1, True), module.unused(0)), tmp_path)
    assert traffic.one_way(SOURCE, taken[path]) == [(8, False), (12, True), (31, False)]
