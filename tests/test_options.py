"""The call-site traffic of ``tests/options.py --callers``: how many calls
pass and how many omit each defaulted parameter, on a synthetic tree."""

import options

SOURCE = '''def f(a, b=1, *, c=2):
    return a + b + c


class K:
    def m(self, x, y=0):
        return x + y

    @staticmethod
    def s(x, y=0):
        return x + y


def g(a, flag=False):
    return a


def h(a, unused=3):
    return a


def never(a=0):
    return a


f(1)
f(1, 2)
f(1, c=3)
mod.f(*args)
K().m(1, 2)
k.m(1)
K.s(1, 2)
g(1, True)
g(1, flag=False)
h(1)
h(**kwargs)
'''


def test_parameters_count_a_bound_method_after_its_first_argument():
    assert options.parameters(SOURCE) == [
        ("f", "b", 1), ("f", "c", None), ("g", "flag", 1), ("h", "unused", 1), ("never", "a", 0),
        ("m", "y", 1), ("s", "y", 1),
    ]


def test_each_parameter_with_the_calls_that_pass_and_omit_it():
    sites = options.call_sites(SOURCE)
    traffic = dict(zip(options.defaulted(SOURCE), options.traffic(options.parameters(SOURCE), sites)))
    # *args and **kwargs pass everything.
    assert traffic == {
        "f(b)": (2, 2), "f(c)": (2, 2), "g(flag)": (2, 0), "h(unused)": (1, 1), "never(a)": (0, 0),
        "m(y)": (1, 1), "s(y)": (1, 0),
    }


def test_callers_marks_what_no_site_omits_or_passes(tmp_path, capsys):
    lib, other = tmp_path / "lib", tmp_path / "other"
    lib.mkdir()
    other.mkdir()
    (lib / "mod.py").write_text(SOURCE)
    (other / "use.py").write_text("h(1, 2)\nnever()\n")
    options.main(["--callers", str(lib), str(other)])
    lines = capsys.readouterr().out.splitlines()
    path = lib / "mod.py"
    assert lines == [
        f"{path}: f(b) passed 2, omitted 2",
        f"{path}: f(c) passed 2, omitted 2",
        f"{path}: g(flag) passed 2, omitted 0  <- no site omits",
        f"{path}: h(unused) passed 2, omitted 1",
        f"{path}: never(a) passed 0, omitted 1  <- no site passes",
        f"{path}: m(y) passed 1, omitted 1",
        f"{path}: s(y) passed 1, omitted 0  <- no site omits",
        "7 parameters, 3 marked",
    ]
