"""Router work is flat in the site count and in the stream length.

Sharding the GED buys nothing if a raise does work that grows with the
number of sites, if a shard's graph picks up composites another site
owns, or if the router's work per completion grows with the stream it
has already seen.  These are counting properties, so this suite counts
and never times: it wraps the router's instance methods and its
site-keyed containers, routes a fixed stream, and compares the tallies.

Counted per run:

- ``owner_of`` — partition lookups by the router;
- ``raise_remote`` — occurrences fed into any shard's LED;
- ``journal`` — entries the router journaled;
- ``firings`` — global rule firings recorded;
- ``site_walk`` — entries visited by any walk over ``ged.sites``,
  ``ged.status`` or ``ged.shards`` (a per-raise loop over all sites);
- ``journal_walk`` — journal entries visited by any walk over it (a
  per-raise journal scan is quadratic in the stream).
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.ged import ShardedGed
from repro.led import Context, Coupling, LocalEventDetector

SITE_COUNTS = (1, 2, 3, 4)
#: raises per run, divisible by every site count so each site gets an
#: equal slice of the same stream
RAISES = 240


class _Walked:
    """Mixin: a container that adds its length to ``tally[key]`` on
    every full walk."""

    def __init__(self, data, tally, key):
        super().__init__(data)
        self._tally, self._key = tally, key

    def _walk(self):
        self._tally[self._key] += len(self)

    def __iter__(self):
        self._walk()
        return super().__iter__()


class _WalkedList(_Walked, list):
    pass


class _WalkedDict(_Walked, dict):
    def keys(self):
        self._walk()
        return super().keys()

    def values(self):
        self._walk()
        return super().values()

    def items(self):
        self._walk()
        return super().items()


def _counting(method, tally, key):
    def counted(*args, **kwargs):
        tally[key] += 1
        return method(*args, **kwargs)
    return counted


def _route(ged: ShardedGed, stream) -> Counter:
    """Wrap a fully built GED's router surface, raise ``stream``
    (``(site agent, event)`` pairs) and return the router work it caused.

    Call only once the topology is final: joining a site rebuilds the
    shards, which would drop the wrapped LED methods.
    """
    tally = Counter()
    ged.owner_of = _counting(ged.owner_of, tally, "owner_of")
    for shard in ged.shards.values():
        shard.led.raise_remote = _counting(
            shard.led.raise_remote, tally, "raise_remote")
    for attr in ("sites", "status", "shards"):
        setattr(ged, attr, _WalkedDict(getattr(ged, attr), tally,
                                       "site_walk"))
    ged.journal = _WalkedList(ged.journal, tally, "journal_walk")
    for number, (agent, event) in enumerate(stream):
        agent.led.raise_event(event, {"vNo": number})
    tally["journal"] = len(ged.journal)
    tally["firings"] = len(ged.firings)
    return tally


def _make_site():
    led = LocalEventDetector()
    led.define_primitive("e1")
    led.define_primitive("e2")
    return SimpleNamespace(led=led, trace=None, recover=lambda: {})


def _per_site_composites(n_sites: int):
    """``n_sites`` sites, each owning ``G_<site> = e1::<site> OR
    e2::<site>`` (owner-pinned) with one IMMEDIATE rule: every routed
    raise does real detection work on its home shard and on no other."""
    ged = ShardedGed()
    sites = {}
    for index in range(n_sites):
        name = f"s{index}"
        sites[name] = _make_site()
        ged.add_site(name, sites[name])
        ged.import_event(name, "e1")
        ged.import_event(name, "e2")
        ged.define_global_event(
            f"G_{name}", f"(e1::{name} OR e2::{name})", owner=name)
        ged.add_global_rule(f"r_{name}", f"G_{name}",
                            context=Context.RECENT,
                            coupling=Coupling.IMMEDIATE)
    return ged, sites


def _cross_site_seq():
    """``X = e1::alpha SEQ e2::beta`` in CHRONICLE, one IMMEDIATE rule."""
    ged = ShardedGed()
    alpha, beta = _make_site(), _make_site()
    ged.add_site("alpha", alpha)
    ged.add_site("beta", beta)
    ged.import_event("alpha", "e1")
    ged.import_event("beta", "e2")
    ged.define_global_event("X", "(e1::alpha SEQ e2::beta)")
    ged.add_global_rule("rx", "X", context=Context.CHRONICLE,
                        coupling=Coupling.IMMEDIATE)
    return ged, alpha, beta


def _spread(sites: dict):
    """The same ``RAISES``-long stream, dealt round-robin over the sites
    and alternating ``e1``/``e2``."""
    agents = list(sites.values())
    return [(agents[number % len(agents)], "e1" if number % 2 else "e2")
            for number in range(RAISES)]


@pytest.fixture(scope="module")
def site_scaling():
    """Router work for the same stream at each site count."""
    out = {}
    for n_sites in SITE_COUNTS:
        ged, sites = _per_site_composites(n_sites)
        out[n_sites] = (ged, _route(ged, _spread(sites)))
    return out


class TestFlatInSiteCount:
    def test_router_work_is_identical_for_every_site_count(
            self, site_scaling):
        baseline = site_scaling[SITE_COUNTS[0]][1]
        for n_sites in SITE_COUNTS[1:]:
            assert site_scaling[n_sites][1] == baseline, n_sites

    def test_one_journal_entry_and_one_shard_raise_per_raise(
            self, site_scaling):
        for _ged, counts in site_scaling.values():
            assert counts["journal"] == RAISES
            assert counts["raise_remote"] == RAISES
            assert counts["site_walk"] == 0
            assert counts["journal_walk"] == 0

    def test_every_raise_fires_exactly_once(self, site_scaling):
        for n_sites, (ged, counts) in site_scaling.items():
            assert counts["firings"] == RAISES
            fired = Counter(f.site for f in ged.firings)
            assert fired == Counter({f"s{i}": RAISES // n_sites
                                     for i in range(n_sites)})
            assert fired == ged.routed_by_site
            assert len({(f.rule_name, f.occurrence.seq)
                        for f in ged.firings}) == RAISES


class TestFlatInStreamLength:
    def test_per_completion_work_is_independent_of_stream_length(self):
        per_completion = {}
        for pairs in (100, 1000):
            ged, alpha, beta = _cross_site_seq()
            counts = _route(ged, [(alpha, "e1"), (beta, "e2")] * pairs)
            assert counts["firings"] == pairs
            per_completion[pairs] = Counter(
                {key: value / pairs for key, value in counts.items()})
        assert per_completion[1000] == per_completion[100]
        assert per_completion[100]["journal_walk"] == 0


class TestShardLocalGraphs:
    @staticmethod
    def _assert_local(ged: ShardedGed):
        for site, shard in ged.shards.items():
            owned = set(shard.owned)
            assert owned == {c for c in ged.composites
                             if ged.owner_of(c) == site}
            leaves = {leaf for comp in owned
                      for leaf in ged.composites[comp].leaves}
            assert set(shard.led.events) == owned | leaves, site
            assert {r.event_name for r in shard.led.rules.values()} <= owned

    @pytest.mark.parametrize("n_sites", SITE_COUNTS)
    def test_each_shard_holds_only_its_pinned_composite(self, n_sites):
        ged, _sites = _per_site_composites(n_sites)
        self._assert_local(ged)
        for site, shard in ged.shards.items():
            assert shard.owned == [f"G_{site}"]
            assert set(shard.led.events) == {
                f"G_{site}", f"e1::{site}", f"e2::{site}"}

    def test_cross_site_composite_lives_on_one_shard(self):
        ged, _alpha, _beta = _cross_site_seq()
        self._assert_local(ged)
        holders = [s for s, shard in ged.shards.items() if shard.owned]
        assert holders == [ged.owner_of("X")]
