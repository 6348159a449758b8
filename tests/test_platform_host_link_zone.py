"""Tests for Host, Link, Storage and NetZone (repro.platform)."""

import pytest

from repro.des import Environment
from repro.platform import Host, Link, NetZone, Storage
from repro.utils.errors import PlatformError
from repro.utils.rng import RandomSource


class TestHost:
    def test_invalid_parameters(self, env):
        with pytest.raises(PlatformError):
            Host(env, "h", speed=0)
        with pytest.raises(PlatformError):
            Host(env, "h", speed=1e9, cores=0)
        with pytest.raises(PlatformError):
            Host(env, "h", speed=1e9, ram=-1)

    def test_duration_for_scales_with_speed_and_cores(self, env):
        host = Host(env, "h", speed=1e9, cores=8)
        assert host.duration_for(1e9) == 1.0
        assert host.duration_for(1e9, cores=2) == 0.5
        assert host.duration_for(1e9, cores=2, efficiency=0.5) == 1.0

    def test_duration_for_rejects_too_many_cores(self, env):
        host = Host(env, "h", speed=1e9, cores=4)
        with pytest.raises(PlatformError):
            host.duration_for(1e9, cores=8)

    def test_duration_for_rejects_bad_efficiency(self, env):
        host = Host(env, "h", speed=1e9, cores=4)
        with pytest.raises(PlatformError):
            host.duration_for(1e9, efficiency=0.0)
        with pytest.raises(PlatformError):
            host.duration_for(1e9, efficiency=1.5)

    def test_core_accounting(self, env):
        host = Host(env, "h", speed=1e9, cores=4)
        assert host.available_cores == 4
        req = host.core_pool.request(amount=3)
        env.run()
        assert host.available_cores == 1
        assert host.used_cores == 3
        host.core_pool.release(req)
        assert host.available_cores == 4

    def test_utilisation(self, env):
        host = Host(env, "h", speed=1e9, cores=2)
        host.account_busy(cores=2, duration=50)
        assert host.busy_core_seconds == 100
        assert host.utilisation(horizon=100) == pytest.approx(0.5)
        assert host.utilisation(horizon=0) == 0.0

    def test_total_speed(self, env):
        host = Host(env, "h", speed=2e9, cores=4)
        assert host.total_speed == 8e9


class TestLink:
    def test_invalid_parameters(self):
        with pytest.raises(PlatformError):
            Link("l", bandwidth=0)
        with pytest.raises(PlatformError):
            Link("l", bandwidth=1e9, latency=-1)
        with pytest.raises(PlatformError):
            Link("l", bandwidth=1e9, sharing="bogus")

    def test_fatpipe_flag(self):
        assert Link("l", 1e9, sharing="fatpipe").is_fatpipe
        assert not Link("l", 1e9).is_fatpipe

    def test_byte_accounting(self):
        link = Link("l", 1e9)
        link.account(500)
        link.account(250)
        assert link.bytes_carried == 750


class TestStorage:
    def test_register_and_capacity(self, env):
        storage = Storage(env, "se", capacity=1000)
        storage.register("f1", 400)
        assert storage.used == 400
        assert storage.free == 600
        assert storage.holds("f1")
        assert storage.file_size("f1") == 400

    def test_register_beyond_capacity_raises(self, env):
        storage = Storage(env, "se", capacity=100)
        with pytest.raises(PlatformError):
            storage.register("big", 200)

    def test_evict_frees_space(self, env):
        storage = Storage(env, "se", capacity=100)
        storage.register("f", 60)
        storage.evict("f")
        assert storage.used == 0
        assert not storage.holds("f")

    def test_write_takes_bandwidth_limited_time(self, env):
        storage = Storage(env, "se", write_bandwidth=100.0)

        def proc(env):
            yield storage.write("f", 500)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(5.0)
        assert storage.holds("f")
        assert storage.bytes_written == 500

    def test_read_unknown_file_fails(self, env):
        storage = Storage(env, "se")

        def proc(env):
            with pytest.raises(PlatformError):
                yield storage.read("missing")
            return "done"

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"

    def test_concurrent_io_serialised_through_channel(self, env):
        storage = Storage(env, "se", write_bandwidth=100.0)
        completions = []

        def writer(env, name):
            yield storage.write(name, 100)
            completions.append((name, env.now))

        env.process(writer(env, "a"))
        env.process(writer(env, "b"))
        env.run()
        assert [t for _n, t in completions] == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_file_size_of_missing_file_raises(self, env):
        storage = Storage(env, "se")
        with pytest.raises(PlatformError):
            storage.file_size("nope")


class TestNetZone:
    def test_add_and_lookup_hosts(self, env):
        zone = NetZone("BNL")
        host = Host(env, "wn1", speed=1e9, cores=8)
        zone.add_host(host)
        assert zone.host("wn1") is host
        assert "wn1" in zone
        assert len(zone) == 1
        assert host.zone is zone

    def test_duplicate_host_rejected(self, env):
        zone = NetZone("BNL")
        zone.add_host(Host(env, "wn1", speed=1e9))
        with pytest.raises(PlatformError):
            zone.add_host(Host(env, "wn1", speed=1e9))

    def test_host_cannot_join_two_zones(self, env):
        host = Host(env, "wn1", speed=1e9)
        NetZone("A").add_host(host)
        with pytest.raises(PlatformError):
            NetZone("B").add_host(host)

    def test_unknown_host_lookup_raises(self):
        with pytest.raises(PlatformError):
            NetZone("A").host("missing")

    def test_aggregate_capacity(self, env):
        zone = NetZone("BNL")
        zone.add_host(Host(env, "a", speed=1e9, cores=4))
        zone.add_host(Host(env, "b", speed=2e9, cores=8))
        assert zone.total_cores == 12
        assert zone.total_speed == 4e9 + 16e9
        assert zone.mean_core_speed() == pytest.approx((4e9 + 16e9) / 12)

    def test_empty_zone_mean_speed_is_zero(self):
        assert NetZone("X").mean_core_speed() == 0.0

    def test_available_cores_follow_usage(self, env):
        zone = NetZone("BNL")
        host = Host(env, "a", speed=1e9, cores=4)
        zone.add_host(host)
        host.core_pool.request(amount=2)
        env.run()
        assert zone.available_cores == 2


class TestZoneCountersMatchHostScan:
    """The zone's O(1) core counters against the sums they replaced."""

    @staticmethod
    def check(zone):
        hosts = list(zone)
        assert zone.available_cores == sum(h.available_cores for h in hosts)
        assert zone.total_cores == sum(h.cores for h in hosts)
        assert zone.max_host_cores == max((h.cores for h in hosts), default=0)

    @staticmethod
    def hold(env, host, seconds, cores):
        """A process that holds ``cores`` of ``host`` for ``seconds``, then frees them."""
        request = host.core_pool.request(amount=cores)
        yield request
        yield env.timeout(seconds)
        host.core_pool.release(request)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_request_release_cancel(self, seed):
        env = Environment()
        rng = RandomSource(seed).generator("zone-counter-fuzz")
        zone = NetZone("SITE")
        self.check(zone)
        hosts = [zone.add_host(Host(env, f"wn{i}", speed=1e9, cores=int(rng.integers(1, 9))))
                 for i in range(3)]
        requests = []  # (host, request): granted, queued behind a wide head, or cancelled
        for step in range(300):
            action = int(rng.integers(0, 6))
            host = hosts[int(rng.integers(0, len(hosts)))]
            if action <= 1:
                # Wide requests queue at the head and block narrower ones behind them.
                amount = host.cores if rng.random() < 0.3 else int(rng.integers(1, host.cores + 1))
                requests.append((host, host.core_pool.request(amount=amount)))
            elif action == 2 and requests:
                index = int(rng.integers(0, len(requests)))
                owner, request = requests[index]
                if request.triggered:
                    del requests[index]
                owner.core_pool.release(request)  # a no-op on a still-queued request
            elif action == 3 and requests:
                _owner, request = requests.pop(int(rng.integers(0, len(requests))))
                request.cancel()  # releases if granted, withdraws if queued
            elif action == 4:
                env.process(self.hold(env, host, seconds=float(rng.integers(1, 5)),
                                      cores=int(rng.integers(1, host.cores + 1))))
            elif step % 25 == 0:
                # A late host, some of its cores already granted before it joins.
                late = Host(env, f"late{step}", speed=1e9, cores=int(rng.integers(1, 17)))
                requests.append((late, late.core_pool.request(amount=1)))
                hosts.append(zone.add_host(late))
            self.check(zone)
            if rng.random() < 0.3:
                env.run(until=env.now + float(rng.random()))
                self.check(zone)
        for owner, request in requests:
            request.cancel()
        env.run()
        self.check(zone)
        assert zone.available_cores == zone.total_cores

    def test_hosts_outside_a_zone_need_no_counter(self, env):
        host = Host(env, "loose", speed=1e9, cores=2)
        request = host.core_pool.request()
        host.core_pool.release(request)
        assert host.available_cores == 2


class TestZoneBestFitMatchesHostScan:
    """``NetZone.best_fit`` -- one bisection -- against the scan it replaced."""

    @staticmethod
    def scan(zone, cores):
        """Best fit as the site receiver used to find it: every host, every time."""
        best, best_key = None, None
        for host in zone:
            free = host.available_cores
            if free >= cores and (best is None or (free, host.name) < best_key):
                best, best_key = host, (free, host.name)
        return best

    def check(self, zone):
        for cores in range(1, 18):
            assert zone.best_fit(cores) is self.scan(zone, cores)
        assert zone.free_core_order() == sorted((h.available_cores, h.name) for h in zone)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_grant_release_sequences(self, seed):
        env = Environment()
        rng = RandomSource(seed).generator("zone-best-fit-fuzz")
        zone = NetZone("SITE")
        assert zone.best_fit(1) is None
        for index in range(10):
            zone.add_host(Host(env, f"wn{index:02d}", speed=1e9, cores=int(rng.integers(1, 9))))
        held = []
        for step in range(400):
            if held and rng.random() < 0.48:
                host, request = held.pop(int(rng.integers(0, len(held))))
                request.cancel()
                zone.refile(host)
            else:
                cores = int(rng.integers(1, 9))
                host = zone.best_fit(cores)
                assert host is self.scan(zone, cores)
                if host is not None:
                    held.append((host, host.core_pool.request(amount=cores)))
                    zone.refile(host)
            if step % 50 == 0:
                # A late host, some of its cores already granted before it joins.
                late = Host(env, f"late{step:03d}", speed=1e9, cores=int(rng.integers(1, 17)))
                held.append((late, late.core_pool.request(amount=1)))
                zone.add_host(late)
            self.check(zone)
        for host, request in held:
            request.cancel()
            zone.refile(host)
        self.check(zone)
        assert zone.best_fit(1).available_cores == min(h.cores for h in zone)

    def test_ties_go_to_the_first_name(self, env):
        zone = NetZone("SITE")
        for name in ("wn2", "wn0", "wn1"):
            zone.add_host(Host(env, name, speed=1e9, cores=4))
        assert zone.best_fit(4).name == "wn0"
        assert zone.best_fit(5) is None

    def test_a_pool_changed_without_refile_leaves_the_order_stale_until_refiled(self, env):
        zone = NetZone("SITE")
        small = zone.add_host(Host(env, "a", speed=1e9, cores=2))
        zone.add_host(Host(env, "b", speed=1e9, cores=4))
        request = small.core_pool.request(amount=2)  # nobody told the zone
        assert zone.best_fit(1) is small and small.available_cores == 0
        zone.refile(small)
        assert zone.best_fit(1).name == "b"
        request.cancel()
        zone.refile(small)
        self.check(zone)
