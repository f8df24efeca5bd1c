"""The records: named tuples with validated construction, and annotations that resolve.

Each record class behaves as the collections.namedtuple of its name,
fields and defaults, and each memo keeps functools.lru_cache's contract,
on which the benchmark's cache clearing relies.
"""

import collections
import collections.abc
import copy
import importlib
import importlib.util
import inspect
import pkgutil
import pickle
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import gaussbase
from gaussbase._records import CacheInfo, cached_property
from gaussbase.automata import Dfa, LanguageOracle, ResidualReport, powers_dfa, powers_oracle, residual_signatures
from gaussbase.cli import COMMANDS, _Command
from gaussbase.dependence import DependenceVerdict, GroupWitness, PrefixWitness, group_witness, prefix_extension
from gaussbase.gaussint import ONE, ZERO, BudgetExceeded, GaussInt, InvalidInput
from gaussbase.numeration import (
    MEMO_SIZE,
    DigitSet,
    LargeCanonicalDigitSet,
    LengthBound,
    LinkCertificate,
    canonical_digit_set,
    decode,
    encode,
    length_bound,
    recode,
    terminates_on_disc,
)

g = GaussInt
B = g(2, 1)
D5 = canonical_digit_set(B)
D5_TEXT = (
    "DigitSet(base=GaussInt(2, 1), digits=(GaussInt(-1, 0), GaussInt(0, -1), GaussInt(0, 0),"
    " GaussInt(0, 1), GaussInt(1, 0)))"
)


ORACLE = powers_oracle(B, D5)

# (make, repr) per record class: make() builds a fresh, equal record each call
RECORDS = {
    DigitSet: (lambda: DigitSet(B, tuple(reversed(D5.digits))), D5_TEXT),
    LargeCanonicalDigitSet: (
        lambda: LargeCanonicalDigitSet(g(400, 1)),
        "LargeCanonicalDigitSet(base=GaussInt(400, 1), digits=None)",
    ),
    LengthBound: (lambda: LengthBound(B, 3), "LengthBound(base=GaussInt(2, 1), m3=3)"),
    LinkCertificate: (
        lambda: LinkCertificate((ZERO, ONE)),
        "LinkCertificate(envelope=(GaussInt(0, 0), GaussInt(1, 0)))",
    ),
    Dfa: (
        lambda: powers_dfa(B),
        f"Dfa(alphabet={D5_TEXT}, initial=0, transitions=((2, 2, 2, 2, 1), (2, 2, 1, 2, 2),"
        " (2, 2, 2, 2, 2)), accepting=frozenset({1}))",
    ),
    LanguageOracle: (
        lambda: LanguageOracle(*ORACLE),
        f"LanguageOracle(alphabet={D5_TEXT}, value_test={ORACLE.value_test!r}, candidates={ORACLE.candidates!r})",
    ),
    ResidualReport: (
        lambda: residual_signatures(powers_oracle(g(1, 2), D5), 2, 1),
        "ResidualReport(prefix_depth=2, extension_depth=1, class_count=5)",
    ),
    DependenceVerdict: (
        lambda: DependenceVerdict(True, 1, 2),
        "DependenceVerdict(dependent=True, r=1, s=2)",
    ),
    GroupWitness: (
        lambda: group_witness(g(1, 2), B, ONE, 1, 25),
        "GroupWitness(a=GaussInt(1, 2), b=GaussInt(2, 1), u=GaussInt(1, 0), m=10, n=10, err_num=1, err_den=25)",
    ),
    PrefixWitness: (
        lambda: prefix_extension(g(1, 2), B, ONE, 3),
        "PrefixWitness(a=GaussInt(1, 2), b=GaussInt(2, 1), u=GaussInt(1, 0), m=39, n=39,"
        " z=GaussInt(-1091593097933, -1091593097933))",
    ),
    _Command: (
        lambda: _Command("x", None, args=((("--y",), {}),)),
        "_Command(name='x', help=None, handler=None, args=((('--y',), {}),), subcommands=(), inputs=())",
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_equals_and_hashes_by_its_fields(cls):
    make, _ = RECORDS[cls]
    r1, r2 = make(), make()
    assert r1 is not r2 and r1 == r2 and not r1 != r2
    assert r1 == tuple(r2) and r1._replace() == r2  # a record is the tuple of its fields
    if cls is not _Command:  # its args hold dicts
        assert hash(r1) == hash(r2) == hash(tuple(r1))
        assert len({r1, r2}) == 1
    assert type(r1) is cls


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_refuses_a_field_assignment(cls):
    r = RECORDS[cls][0]()
    for field in r._fields:
        with pytest.raises(AttributeError):
            setattr(r, field, None)
        with pytest.raises(AttributeError):
            delattr(r, field)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_reprs_as_its_fields(cls):
    make, text = RECORDS[cls]
    assert repr(make()) == text


def test_records_differ_when_a_field_differs():
    w = prefix_extension(g(1, 2), B, ONE, 3)
    assert w != w._replace(n=w.n + 1) and w._replace(n=w.n + 1) != w
    assert DependenceVerdict(False) == DependenceVerdict(False, None, None) != DependenceVerdict(True, 1, 2)
    assert powers_dfa(B) != powers_dfa(g(3))
    assert length_bound(B) != length_bound(g(3))


def test_digit_set_fields_and_tables():
    D = DigitSet(B, tuple(reversed(D5.digits)))
    base, digits = D
    assert (base, digits) == (B, D5.digits) and D._fields == ("base", "digits")
    assert D.positions == {(d.re, d.im): i for i, d in enumerate(D5.digits)}
    assert D.index(D5.digits) == 1  # tuple.index, no longer shadowed by the position table


@pytest.mark.parametrize(
    "base,digits,message",
    [
        (g(2), (ZERO, ONE, g(-1), g(0, 1)), r"norm\(2\) = 4 < 5"),
        (B, (ONE, g(-1), g(0, 1), g(0, -1), g(2)), "digit set must contain 0"),
        (B, (ZERO, ONE, g(-1), g(0, 1), ONE), "duplicate digits"),
        (B, (ZERO, ONE, g(-1), g(0, 1)), r"4 digits for base 2\+1i of norm 5"),
        (B, (ZERO, ONE, g(-1), g(0, 1), g(1, -1)), "digits are not pairwise incongruent mod base"),
        (B, ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)), r"digit \(0, 0\) is not a GaussInt"),
        (B, tuple(types.SimpleNamespace(re=k, im=0) for k in range(5)), r"digit namespace\(re=0, im=0\) is not a GaussInt"),
        (B, [1, 2], "digit 1 is not a GaussInt"),
        ((2, 1), D5.digits, r"base \(2, 1\) is not a GaussInt"),
        (ZERO, D5.digits, r"norm\(0\) = 0 < 5"),
    ],
)
def test_digit_set_rejects_every_malformed_input(base, digits, message):
    with pytest.raises(InvalidInput, match=message):
        DigitSet(base, digits)
    with pytest.raises(InvalidInput, match=message):
        D5._replace(base=base, digits=digits)  # _replace builds through the constructor


@pytest.mark.parametrize(
    "initial,transitions,accepting,message",
    [
        (0, (), (), "a DFA needs at least one state"),
        (3, ((0,) * 5,), (), "initial state 3 out of range"),
        (-1, ((0,) * 5,), (), "initial state -1 out of range"),
        (0, ((0, 0),), (), "transition row width differs from alphabet size"),
        (0, ((0, 0, 0, 0, 7),), (), "transition target 7 out of range"),
        (0, ((0, 0, 0, 0, -1),), (), "transition target -1 out of range"),
        (0, ((0,) * 5,), (4,), "accepting states out of range"),
        (0, ((0,) * 5,), (-1,), "accepting states out of range"),
        # the row walk that names a fault tests what the whole-table check tests, membership in range(n)
        (0, ((0, 0, 1.5, 0, 0), (0,) * 5), (), "transition target 1.5 out of range"),
        (0, ((0, 0, "1", 0, 0), (0,) * 5), (), "transition target 1 out of range"),
        (0.5, ((0,) * 5, (0,) * 5), (), "initial state 0.5 out of range"),
    ],
)
def test_dfa_rejects_every_malformed_input(initial, transitions, accepting, message):
    with pytest.raises(InvalidInput, match=message):
        Dfa(D5, initial, transitions, accepting)
    with pytest.raises(InvalidInput, match=message):
        powers_dfa(B)._replace(initial=initial, transitions=transitions, accepting=accepting)


@pytest.mark.parametrize("state", [1.0, True])
def test_dfa_accepts_a_state_of_another_type_equal_to_one_in_range(state):
    d = Dfa(D5, state, ((0, 0, state, 0, 0), (0,) * 5), ())
    assert d.initial == d.transitions[0][2] == 1


def test_dfa_normalises_its_rows_and_accepting_states():
    d = Dfa(D5, 0, [[0] * 5, (i % 2 for i in range(5))], [0, 0, 1])
    assert d.transitions == ((0,) * 5, (0, 1, 0, 1, 0)) and d.accepting == frozenset({0, 1})
    assert d == Dfa(D5, 0, ((0,) * 5, (0, 1, 0, 1, 0)), frozenset({0, 1}))


def test_large_canonical_digit_sets_compare_and_hash():
    L1, L2 = LargeCanonicalDigitSet(g(400, 1)), LargeCanonicalDigitSet(g(400, 1))
    assert L1 == L2 and hash(L1) == hash(L2) and tuple(L1) == (g(400, 1), None)
    assert canonical_digit_set(g(400, 1)) == L1
    assert L1 != LargeCanonicalDigitSet(g(400, -1))
    assert terminates_on_disc(L1)  # memoised, so it hashes the set
    with pytest.raises(BudgetExceeded, match="digit budget"):
        L1.digits
    with pytest.raises(InvalidInput, match=r"base \(400, 1\) is not a GaussInt"):
        L1._replace(base=(400, 1))


@pytest.mark.parametrize("b", [B, g(3), g(-4, 7)])
def test_a_large_canonical_digit_set_never_equals_a_listed_one(b):
    listed, unlisted = canonical_digit_set(b), LargeCanonicalDigitSet(b)
    assert listed != unlisted and unlisted != listed
    assert DigitSet(b, listed.digits) != unlisted


def assert_same_words(D, fresh):
    """encode, decode and recode through D agree with a digit set built afresh from the same fields."""
    for z in (g(0), g(1), g(-7, 3), g(40, -29), g(123456, 789)):
        w = encode(z, D)
        assert w == encode(z, fresh) and decode(w, D) == z
        assert recode(w, D, 2) == recode(w, fresh, 2)


def test_digit_set_positions_survive_replace_and_pickle():
    D = DigitSet(B, tuple(reversed(D5.digits)))
    expected = {(d.re, d.im): i for i, d in enumerate(D5.digits)}
    fresh = DigitSet(B, D5.digits)
    for clone in (pickle.loads(pickle.dumps(D)), copy.deepcopy(D), D._replace(digits=D.digits)):
        assert clone.positions == expected
        assert_same_words(clone, fresh)
    D3 = D._replace(base=g(3), digits=canonical_digit_set(g(3)).digits)
    assert D3.positions == {(d.re, d.im): i for i, d in enumerate(canonical_digit_set(g(3)).digits)}
    assert_same_words(D3, DigitSet(g(3), canonical_digit_set(g(3)).digits))


def test_records_copy_and_pickle_through_the_constructor():
    for r in (D5, LargeCanonicalDigitSet(g(400, 1)), powers_dfa(B), length_bound(B)):
        for clone in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert clone == r and type(clone) is type(r)
    clone = pickle.loads(pickle.dumps(D5))
    assert clone.positions == D5.positions and clone._loop == D5._loop
    moved = LargeCanonicalDigitSet(g(400, 1))._replace(base=g(1000, 1))
    assert moved == canonical_digit_set(g(1000, 1))
    assert_same_words(moved, LargeCanonicalDigitSet(g(1000, 1)))


def test_each_dfa_subcommand_has_its_own_handler():
    dfa = COMMANDS["dfa"]
    assert dfa.handler is None
    assert [(c.name, c.handler.__name__) for c in dfa.subcommands] == [
        (name, f"cmd_dfa_{name}") for name in ("make", "run", "min", "equiv", "falsify")
    ]


def _annotated_objects():
    """Every function, class and method (property and cached_property getters too) defined in gaussbase."""
    for info in pkgutil.iter_modules(gaussbase.__path__):
        importlib.import_module(f"gaussbase.{info.name}")
    found = []

    def walk(owner, module: str) -> None:
        for obj in vars(owner).values():
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            elif isinstance(obj, cached_property):
                obj = obj.func
            obj = getattr(obj, "__wrapped__", obj)  # lru_cache and cache wrappers
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module:
                if obj not in found:
                    found.append(obj)
                    if inspect.isclass(obj):
                        walk(obj, module)

    for name, module in sorted(sys.modules.items()):
        if name == "gaussbase" or name.startswith("gaussbase."):
            walk(module, name)
    return found


def test_every_annotation_resolves():
    objects = _annotated_objects()
    assert len(objects) > 150
    names = {f"{obj.__module__}.{obj.__qualname__}" for obj in objects}
    assert {"gaussbase.automata.Dfa.__new__", "gaussbase.numeration.length_bound", "gaussbase.cli.main"} <= names
    # the abstract classes are annotations only, so no module imports them: they resolve from collections.abc
    abc_names = {name: getattr(collections.abc, name) for name in ("Callable", "Hashable", "Iterable", "Iterator")}
    for obj in objects:
        typing.get_type_hints(obj, localns=abc_names)  # any other name missing from the module raises NameError


# every record class: (name, fields, defaults), as collections.namedtuple takes them
RECORD_SPECS = {
    DigitSet: ("DigitSet", "base digits", ()),
    LengthBound: ("LengthBound", "base m3", ()),
    LinkCertificate: ("LinkCertificate", "envelope", ()),
    Dfa: ("Dfa", "alphabet initial transitions accepting", ()),
    LanguageOracle: ("LanguageOracle", "alphabet value_test candidates", ()),
    ResidualReport: ("ResidualReport", "prefix_depth extension_depth class_count representatives", ()),
    DependenceVerdict: ("DependenceVerdict", "dependent r s", (None, None)),
    GroupWitness: ("GroupWitness", "a b u m n err_num err_den", ()),
    PrefixWitness: ("PrefixWitness", "a b u m n z", ()),
    _Command: ("_Command", "name help handler args subcommands inputs", (None, (), (), ())),
    CacheInfo: ("CacheInfo", "hits misses maxsize currsize", ()),
}


def _record_and_twin(cls, monkeypatch):
    """The tuple class cls derives from, and the namedtuple of the same spec, in a module of its own;
    each is put in its module under its name, so that pickle finds them."""
    base = next(c for c in cls.__mro__ if c.__bases__ == (tuple,))
    name, fields, defaults = RECORD_SPECS[cls]
    twins = types.ModuleType("namedtuple_twins")
    monkeypatch.setitem(sys.modules, twins.__name__, twins)
    twin = collections.namedtuple(name, fields, defaults=defaults, module=twins.__name__)
    setattr(twins, name, twin)
    monkeypatch.setattr(sys.modules[base.__module__], name, base, raising=False)
    return base, twin


def _raised(call):
    """(type, message) of the exception call raises."""
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("cls", RECORD_SPECS, ids=lambda cls: cls.__name__)
def test_a_record_class_behaves_as_the_namedtuple_of_its_spec(cls, monkeypatch):
    base, twin = _record_and_twin(cls, monkeypatch)
    fields = twin._fields
    values = tuple(range(10, 10 + len(fields)))
    required = len(fields) - len(twin._field_defaults)
    r, t = base(*values), twin(*values)
    # construction: positional, keyword and with the defaults
    assert base(**dict(zip(fields, values))) == r == t == values
    assert base(*values[:required]) == twin(*values[:required])
    assert type(base(*values[:required])) is base
    assert _raised(lambda: base(*values[: required - 1])) == _raised(lambda: twin(*values[: required - 1]))
    assert _raised(lambda: base(*values, 0)) == _raised(lambda: twin(*values, 0))
    assert _raised(lambda: base(*values, **{fields[0]: 0})) == _raised(lambda: twin(*values, **{fields[0]: 0}))
    # the class's description
    assert base._fields == base.__match_args__ == fields
    assert base._field_defaults == twin._field_defaults
    assert [getattr(r, field) for field in fields] == list(values)
    assert [getattr(base, field).__doc__ for field in fields] == [getattr(twin, field).__doc__ for field in fields]
    assert repr(r) == repr(t) and repr(base(*values[:required])) == repr(twin(*values[:required]))
    assert hash(r) == hash(t) == hash(values) and r != values[:-1]
    match r:
        case base(first):
            assert first == values[0]
    # _replace, _make and _asdict
    assert r._replace(**{fields[-1]: 0}) == t._replace(**{fields[-1]: 0}) == (*values[:-1], 0)
    assert type(r._replace()) is base
    assert _raised(lambda: r._replace(bogus=1)) == _raised(lambda: t._replace(bogus=1)) == (
        ValueError,
        "Got unexpected field names: ['bogus']",
    )
    assert base._make(iter(values)) == r and type(base._make(values)) is base
    for wrong in (values[:-1], (*values, 0)):
        assert _raised(lambda: base._make(wrong)) == _raised(lambda: twin._make(wrong))
    assert r._asdict() == t._asdict() and list(r._asdict()) == list(fields)
    # copy, deepcopy and pickle
    for clone in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert clone == r and type(clone) is base
    assert r.__getnewargs__() == t.__getnewargs__() == values


def _memos():
    """Every memo of the package, emptied, with the maxsize its contract names and an argument to call it with."""
    memos = {
        canonical_digit_set: (MEMO_SIZE, (g(3, 1),)),
        length_bound: (MEMO_SIZE, (g(3, 1),)),
        terminates_on_disc: (MEMO_SIZE, (canonical_digit_set(g(3, 1)),)),
    }
    for memo in memos:
        memo.cache_clear()
    return memos


def test_every_memo_keeps_cache_clear_cache_info_and_wrapped():
    for memo, (maxsize, args) in _memos().items():
        assert memo.cache_info() == (0, 0, maxsize, 0)
        assert type(memo.cache_info())._fields == ("hits", "misses", "maxsize", "currsize")
        assert not hasattr(memo.__wrapped__, "cache_info") and memo.__wrapped__.__name__ == memo.__name__
        first = memo(*args)
        assert memo(*args) is first
        info = memo.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 1, maxsize, 1)
        assert memo.__wrapped__(*args) == first and memo.cache_info() == info  # a fresh call gives an equal value
        memo.cache_clear()
        assert memo.cache_info() == (0, 0, maxsize, 0)


def test_the_benchmarks_clear_caches_empties_every_memo():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    api = tracing.library(("numeration", "automata", "dependence", "cli"))
    memos = _memos()
    for memo, (_, args) in memos.items():
        memo(*args)
    assert all(memo.cache_info().currsize >= 1 for memo in memos)
    api.clear_caches()
    assert all(memo.cache_info().currsize == 0 for memo in memos)


def test_a_cached_property_runs_its_getter_once_and_keeps_the_value():
    w = PrefixWitness(*prefix_extension(g(1, 2), B, ONE, 3))  # fresh: the search read its words
    assert "word_u" not in vars(w) and isinstance(PrefixWitness.word_u, cached_property)
    assert PrefixWitness.word_u.func.__name__ == "word_u"
    first = w.word_u
    assert vars(w)["word_u"] is first is w.word_u
    vars(w)["word_z"] = (ONE,)  # a value put in the instance shadows the getter
    assert w.word_z == (ONE,)


# imports gaussbase with the interpreter's _functools blocked, as on a Python built without it, then
# runs pytest on argv with the interpreter's own functools, which hypothesis needs
WITHOUT_FUNCTOOLS = """
import sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "_functools":
            raise ImportError("no _functools")

saved = {name: sys.modules.pop(name) for name in ("_functools", "functools") if name in sys.modules}
sys.meta_path.insert(0, Blocker())
sys.path.insert(0, sys.argv.pop(1))
from gaussbase import _records
assert type(_records._lru_cache_wrapper).__name__ == "function", _records._lru_cache_wrapper
del sys.meta_path[0], sys.modules["functools"]
sys.modules.update(saved)
import pytest
sys.exit(pytest.main(sys.argv[1:]))
"""


def test_records_and_memos_work_on_functools_pure_python_wrapper(tmp_path):
    """Without _functools, memo wraps with functools' pure-Python _lru_cache_wrapper, and the other tests of
    this module, the record and memo checks among them, still pass."""
    src = str(Path(gaussbase.__file__).resolve().parents[1])
    argv = [sys.executable, "-c", WITHOUT_FUNCTOOLS, src, __file__, "-q", "-p", "no:cacheprovider", "-k", "not pure_python"]
    child = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    assert " passed" in child.stdout and " failed" not in child.stdout


# with the C modules named after the package path blocked, as on a Python built without them, checks that
# the package took each public fallback, then prints a record, a memo's cache_info, a minimized DFA and
# the reports of two command lines, one that writes a DFA file and one that reads it
FALLBACK_CHILD = """
import io, sys
src, blocked = sys.argv[1], sys.argv[2:]
sys.modules.update(dict.fromkeys(blocked))
sys.path.insert(0, src)
from gaussbase import _records, automata, cli, numeration
from gaussbase.gaussint import GaussInt
if blocked:
    assert type(_records._lru_cache_wrapper).__name__ == "function", _records._lru_cache_wrapper
    assert type(automata.add).__name__ == "function", automata.add
    assert type(numeration.attrgetter.__init__).__name__ == "function", numeration.attrgetter
    assert cli.encode_basestring_ascii.__name__ == "py_encode_basestring_ascii", cli.encode_basestring_ascii
B = GaussInt(2, 1)
print(numeration.length_bound(B))
numeration.canonical_digit_set.cache_clear()
numeration.canonical_digit_set(B), numeration.canonical_digit_set(B)
print(numeration.canonical_digit_set.cache_info())
print(automata.dfa_to_json(automata.minimize(automata.powers_dfa(B))))
stdout, sys.stdout = sys.stdout, io.StringIO()
codes = [cli.main(["dfa", "make", "powers", "-b", "2+1i", "--dfa-out", "powers.json"]), cli.main(["dfa", "min", "powers.json"])]
report, sys.stdout = sys.stdout.getvalue(), stdout
print(codes, report, open("powers.json", encoding="utf-8").read())
"""


def test_the_public_fallbacks_of_the_private_c_imports_give_the_same_bytes(tmp_path):
    """Without _functools, _operator and _json, records, memos, minimize and the CLI print what they print with them.
    _collections stays required (see _records)."""
    src = str(Path(gaussbase.__file__).resolve().parents[1])
    outputs = []
    for blocked in ((), ("_functools", "_operator", "_json")):
        argv = [sys.executable, "-I", "-S", "-c", FALLBACK_CHILD, src, *blocked]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=tmp_path)
        assert child.returncode == 0, child.stderr[-3000:]
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]
    assert "CacheInfo(hits=1, misses=1, maxsize=" in outputs[0] and "[0, 0]" in outputs[0]
