"""The records: named tuples with validated construction, and annotations that resolve."""

import copy
import importlib
import inspect
import pkgutil
import pickle
import sys
import typing
from functools import cached_property

import pytest

import gaussbase
from gaussbase.automata import Dfa, LanguageOracle, ResidualReport, powers_dfa, powers_oracle, residual_signatures
from gaussbase.cli import COMMANDS, _Command
from gaussbase.dependence import DependenceVerdict, GroupWitness, PrefixWitness, group_witness, prefix_extension
from gaussbase.gaussint import ONE, ZERO, BudgetExceeded, GaussInt, InvalidInput
from gaussbase.numeration import (
    DigitSet,
    LargeCanonicalDigitSet,
    LengthBound,
    LinkCertificate,
    canonical_digit_set,
    length_bound,
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


@pytest.mark.parametrize("b", [B, g(3), g(-4, 7)])
def test_a_large_canonical_digit_set_never_equals_a_listed_one(b):
    listed, unlisted = canonical_digit_set(b), LargeCanonicalDigitSet(b)
    assert listed != unlisted and unlisted != listed
    assert DigitSet(b, listed.digits) != unlisted


def test_digit_set_positions_survive_replace_and_pickle():
    D = DigitSet(B, tuple(reversed(D5.digits)))
    expected = {(d.re, d.im): i for i, d in enumerate(D5.digits)}
    for clone in (pickle.loads(pickle.dumps(D)), copy.deepcopy(D), D._replace(digits=D.digits)):
        assert clone.positions == expected
    D3 = D._replace(base=g(3), digits=canonical_digit_set(g(3)).digits)
    assert D3.positions == {(d.re, d.im): i for i, d in enumerate(canonical_digit_set(g(3)).digits)}


def test_records_copy_and_pickle_through_the_constructor():
    for r in (D5, LargeCanonicalDigitSet(g(400, 1)), powers_dfa(B), length_bound(B)):
        for clone in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert clone == r and type(clone) is type(r)
    clone = pickle.loads(pickle.dumps(D5))
    assert clone.positions == D5.positions and clone._by_residue == D5._by_residue
    assert LargeCanonicalDigitSet(g(400, 1))._replace(base=g(1000, 1)) == canonical_digit_set(g(1000, 1))


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
    for obj in objects:
        typing.get_type_hints(obj)  # a name missing from the module raises NameError
