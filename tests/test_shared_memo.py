"""One memo per term function: a view ``Sequence(s.term)`` or ``Sequence(s)``
shares its source's term function and memo, and the series loop of
``transform`` fills a missing term itself, as ``Sequence.term`` would."""
import random
import sys
import threading

import pytest

import biqz.catalog as cat
from biqz import Biquaternion, Sequence, transform


def _reprs(q: Biquaternion) -> tuple[str, ...]:
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical components
    return tuple(repr(c) for c in (q.w, q.x, q.y, q.z))


class _Counting:
    """A term function n -> 0.5**n + 0.25Ii that counts its calls per index and
    raises ValueError at the indices in ``fail``."""

    def __init__(self, fail=()):
        self.calls: dict[int, int] = {}
        self.fail = set(fail)

    def __call__(self, n):
        self.calls[n] = self.calls.get(n, 0) + 1
        if n in self.fail:
            raise ValueError(f"no term at index {n}")
        return Biquaternion(0.5**n, 0.25j, 0, 0)


def _views(source: Sequence) -> list[Sequence]:
    return [Sequence(source.term), Sequence(source), Sequence(source.__call__)]


class TestViews:
    def test_a_view_returns_its_sources_terms(self):
        source = Sequence.geometric(Biquaternion(0.6 + 0.2j, 0.3, -0.2j, 0.1))
        for view in _views(source):
            for n in (0, 7, 3, 7):
                assert view.term(n) is source.term(n)
        later = Sequence(source.term)
        assert [later.term(n) for n in range(12)] == source.prefix(12)
        assert all(later.term(n) is source.term(n) for n in range(12))

    @pytest.mark.parametrize("view_first", [True, False])
    def test_one_call_per_index_across_view_and_source(self, view_first):
        fn = _Counting()
        source = Sequence(fn)
        view = Sequence(source.term)
        first, second = (view, source) if view_first else (source, view)
        for n in (4, 0, 4, 9):
            first.term(n)
        for n in range(12):
            assert second.term(n) is first.term(n)
        assert fn.calls == {n: 1 for n in range(12)}

    def test_a_view_of_a_view_is_a_view_of_the_root(self):
        fn = _Counting()
        root = Sequence(fn)
        outer = Sequence(Sequence(Sequence(root).term, name="inner").term)
        assert outer._fn is fn
        assert outer._cache is root._cache
        assert outer.term(5) is root.term(5)
        assert fn.calls == {5: 1}

    def test_a_view_keeps_its_own_hint_name_and_ratio(self):
        source = Sequence.geometric(0.5)
        assert source.ratio is not None
        view = Sequence(source.term)
        assert (view.radius_hint, view.name, view.ratio) == (None, None, None)
        named = Sequence(source, radius_hint=3.0, name="hinted")
        assert (named.radius_hint, named.name, named.ratio) == (3.0, "hinted", None)
        assert (source.radius_hint, source.name, source.ratio) == (0.5, "geometric", Biquaternion(0.5))
        assert named.term(2) is source.term(2)

    def test_other_callables_keep_their_own_memo(self):
        class Sub(Sequence):
            __slots__ = ()

        class Foreign:
            def term(self, n):
                return Biquaternion(n)

        fn = _Counting()
        source = Sequence(fn)
        sub = Sub(_Counting())
        for other in (Sequence(sub.term), Sequence(sub), Sequence(lambda n: source.term(n)),
                      Sequence(Foreign().term), Sequence(source.prefix)):
            assert other._cache is not source._cache
            assert other._cache is not sub._cache
        wrapped = Sequence(lambda n: source.term(n))
        assert wrapped.term(3) is source.term(3)  # the same object, held in two memos
        assert 3 in wrapped._cache and 3 in source._cache
        assert fn.calls == {3: 1}
        assert Sequence(Foreign().term).term(2) == Biquaternion(2)

    def test_a_raising_term_is_in_neither_memo(self):
        fn = _Counting(fail={3})
        source = Sequence(fn)
        view = Sequence(source.term)
        for seq in (view, source, view):
            with pytest.raises(ValueError, match="index 3"):
                seq.term(3)
        assert view.term(2) is source.term(2)
        assert sorted(source._cache) == [2]
        assert view._cache is source._cache
        assert fn.calls == {3: 3, 2: 1}

    def test_threads_reading_a_view_and_its_source_get_the_in_order_values(self):
        p = Biquaternion(0.6 + 0.2j, 0.3 - 0.1j, -0.2 + 0.25j, 0.1 + 0.05j)
        want = [_reprs(t) for t in Sequence.geometric(p).prefix(200)]
        source = Sequence.geometric(p)
        view = Sequence(source.term)
        wrong = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(400):
                n = rng.randrange(200)
                seq = view if rng.random() < 0.5 else source
                if _reprs(seq.term(n)) != want[n]:
                    wrong.append(n)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert view._cache is source._cache
        assert all(_reprs(q) == want[n] for n, q in source._cache.items())


class TestSeriesLoopFill:
    @pytest.mark.parametrize("through_view", [False, True])
    def test_one_call_per_index_read(self, through_view):
        fn = _Counting()
        source = Sequence(fn)
        seq = Sequence(source.term) if through_view else source
        tv = transform(seq, 2)
        assert tv.certified
        assert fn.calls == {n: 1 for n in range(tv.terms_used)}
        assert sorted(source._cache) == list(range(tv.terms_used))
        assert transform(source, 2) == tv
        assert transform(Sequence(source), 2) == tv
        assert fn.calls == {n: 1 for n in range(tv.terms_used)}

    @pytest.mark.parametrize("raw", [lambda n: n, lambda n: 0.5 * n, lambda n: complex(n, -0.0)],
                             ids=["int", "float", "complex"])
    def test_scalar_results_are_stored_as_term_stores_them(self, raw):
        filled = Sequence(raw)
        tv = transform(filled, 3)
        assert tv.certified
        by_term = Sequence(raw)
        for n in range(tv.terms_used):
            got = filled._cache[n]
            assert type(got) is Biquaternion
            assert _reprs(got) == _reprs(by_term.term(n))

    @pytest.mark.parametrize("k", [1, 5, 30])
    @pytest.mark.parametrize("through_view", [False, True])
    def test_a_raising_term_ends_the_series(self, k, through_view):
        fn = _Counting(fail={k})
        source = Sequence(fn)
        seq = Sequence(source.term) if through_view else source
        tv = transform(seq, 1)
        assert tv.terms_used == k
        assert k not in source._cache
        assert sorted(source._cache) == list(range(k))
        assert fn.calls == {n: 1 for n in range(k + 1)}
        assert tv == transform(Sequence(_Counting(fail={k})), 1)

    def test_the_boundary_series_on_a_view_and_on_its_source(self):
        want = ("(99.99999999999878+0j)", "0j", "0j", "0j")
        cold_source = transform(cat.pow_p(0.99).sequence, 1)
        entry = cat.pow_p(0.99)
        view = Sequence(entry.sequence.term)
        cold_view = transform(view, 1)
        warm_source = transform(entry.sequence, 1)
        for tv in (cold_source, cold_view, warm_source):
            assert (_reprs(tv.value), tv.terms_used, repr(tv.tail_bound)) == (want, 3208, "9.947278308099495e-13")
        assert len(entry.sequence._cache) == 3208
