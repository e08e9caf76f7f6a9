"""``records`` against ``dataclasses`` as the reference, and the package's
records where the rest of the package leans on their semantics."""

import dataclasses

import pytest

from fracsmooth import harness, records, sets, spectra, wave
from fracsmooth.errors import OutOfRangeError


def _declare(decorate, field):
    """The same two classes under either decorator."""

    @decorate(frozen=True)
    class Frozen:
        a: int
        b: float = 2.5
        c: tuple = ()

        def __post_init__(self):
            object.__setattr__(self, "c", tuple(self.c))

    @decorate
    class Mutable:
        a: int
        rows: list = field(default_factory=list)
        note: str | None = None

    return Frozen, Mutable


REF = _declare(dataclasses.dataclass, dataclasses.field)
REC = _declare(records.record, records.field)

FROZEN_ARGS = [((1,), {}), ((1, 3.0), {}), ((1,), {"c": [4, 5]}), ((), {"a": 2, "b": -1.0, "c": (7,)})]
MUTABLE_ARGS = [((1,), {}), ((1, [2, 3]), {}), ((), {"a": 0, "note": "x"}), ((5,), {"note": None})]


@pytest.mark.parametrize("kind, cases", [(0, FROZEN_ARGS), (1, MUTABLE_ARGS)])
def test_records_match_dataclasses(kind, cases):
    ref, rec = REF[kind], REC[kind]
    assert rec.__record_fields__ == tuple(f.name for f in dataclasses.fields(ref))
    for args, kwargs in cases:
        r, d = rec(*args, **kwargs), ref(*args, **kwargs)
        assert repr(r) == repr(d)
        assert vars(r) == vars(d)
        assert r == rec(*args, **kwargs) and d == ref(*args, **kwargs)
        assert not r != rec(*args, **kwargs)
        # instances of another class never compare equal, even with equal fields
        assert r != d and d != r
        assert r != tuple(vars(r).values())
    for (a1, k1), (a2, k2) in zip(cases, cases[1:]):
        assert (rec(*a1, **k1) == rec(*a2, **k2)) == (ref(*a1, **k1) == ref(*a2, **k2))


def test_frozen_records_hash_and_refuse_assignment():
    ref, rec = REF[0], REC[0]
    for args, kwargs in FROZEN_ARGS:
        r, d = rec(*args, **kwargs), ref(*args, **kwargs)
        assert hash(r) == hash(d) == hash(rec(*args, **kwargs))
        for obj in (r, d):
            with pytest.raises(AttributeError):
                obj.a = 5
            with pytest.raises(AttributeError):
                obj.other = 5
            with pytest.raises(AttributeError):
                del obj.b
        assert vars(r) == vars(d)


def test_mutable_records_assign_and_do_not_hash():
    ref, rec = REF[1], REC[1]
    for cls in (ref, rec):
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(cls(1))
        obj = cls(1)
        obj.note = "set"
        obj.rows.append(3)
        assert (obj.note, obj.rows) == ("set", [3])
        # each instance gets its own list from the factory
        assert cls(1).rows == [] and cls(1).rows is not cls(1).rows
        assert "rows" not in cls.__dict__
    assert repr(rec(1, [2], "n")) == repr(ref(1, [2], "n"))


@pytest.mark.parametrize("kind", [0, 1])
def test_bad_arguments_raise_type_error(kind):
    for cls in (REF[kind], REC[kind]):
        with pytest.raises(TypeError):
            cls()  # missing a
        with pytest.raises(TypeError):
            cls(1, z=2)  # unknown keyword
        with pytest.raises(TypeError):
            cls(1, a=2)  # a given twice
        with pytest.raises(TypeError):
            cls(1, 2, 3, 4)  # too many positional arguments


def test_replace_matches_dataclasses_and_revalidates():
    ref, rec = REF[0], REC[0]
    r = records.replace(rec(1, 3.0, [4]), b=4.0)
    d = dataclasses.replace(ref(1, 3.0, [4]), b=4.0)
    assert repr(r) == repr(d) and r == rec(1, 4.0, (4,))
    with pytest.raises(TypeError):
        records.replace(r, z=1)
    params = wave.WaveParams(d=3, j=10, t_ref=1.25)
    assert records.replace(params, t_ref=1.5) == wave.WaveParams(3, 10, 1.5)
    with pytest.raises(OutOfRangeError):
        records.replace(params, t_ref=3.0)


def test_experiment_config_keyword_call():
    # perfbench/child.py builds the slope jobs' config this way
    desc = sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0)
    config = harness.ExperimentConfig(desc, d=3, p=2.5, j_min=8, j_max=13, seed=7)
    assert (config.descriptor, config.d, config.p, config.q) == (desc, 3, 2.5, 4.0)
    assert (config.j_list, config.tolerance, config.seed) == (list(range(8, 14)), None, 7)


def test_equal_descriptors_share_one_window_table(kernel_windows):
    spectra._window_tables.clear()
    a = sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0)
    b = sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert spectra.window_count_maxima(a, 8) == spectra.window_count_maxima(b, 8)
    # one build, one hit, one table
    assert (len(kernel_windows), len(spectra._window_tables)) == (1, 1)
    # an interval and a Cantor set with the same ends are different keys
    spectra.window_count_maxima(sets.FullInterval(1.0, 2.0), 8)
    assert (len(kernel_windows), len(spectra._window_tables)) == (2, 2)
