"""Isolated layer rates: timed loops over one layer's public calls, with
nothing else of the stack underneath.

Each rate is measured on the workload whose end-to-end metric it should
move (``catalog.py`` says which), so that a traced run pays only for the
loops that explain it.  A loop body does a fixed batch of operations and
returns how many; :func:`rate` repeats it for at least ``budget``
seconds of host time.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Callable, Dict

import workloads


def rate(batch: Callable[[], int], budget: float) -> float:
    """Operations per host second of ``batch`` over >= ``budget`` s."""
    done = 0
    start = perf_counter()
    while True:
        done += batch()
        elapsed = perf_counter() - start
        if elapsed >= budget:
            return done / elapsed


# -- sim, machine, net --------------------------------------------------------

def kernel_rates(budget: float) -> Dict[str, float]:
    from repro.machine.machine import Machine
    from repro.net.lan import Lan
    from repro.sim.kernel import Simulator

    rng = random.Random(1)
    # Think-time-like far pushes among service-time-like near ones.
    delays = [rng.expovariate(1 / 7.0) if i % 4 == 0 else rng.random() * 0.01
              for i in range(20000)]

    def push_pop() -> int:
        sim = Simulator()
        schedule = sim.schedule

        def fired():
            pass
        for delay in delays:
            schedule(delay, fired)
        sim.run()
        return len(delays)

    def resume() -> int:
        sim = Simulator()

        def ticker():
            for __ in range(400):
                yield 0.001
        for __ in range(50):
            sim.spawn(ticker())
        sim.run()
        return sim.events_processed

    def cpu_execute(competitors: int) -> Callable[[], int]:
        def batch() -> int:
            sim = Simulator()
            cpu = Machine(sim, "box").cpu

            def worker():
                # Below and above the 1 ms quantum: whole and sliced jobs.
                for __ in range(250):
                    yield from cpu.execute(0.0004)
                    yield from cpu.execute(0.0035)
            for __ in range(competitors):
                sim.spawn(worker())
            sim.run()
            return 500 * competitors
        return batch

    def transfer() -> int:
        sim = Simulator()
        lan = Lan(sim)
        web, db = Machine(sim, "web"), Machine(sim, "db")
        lan.attach(web)
        lan.attach(db)

        def talker(src, dst):
            for __ in range(1000):
                yield from lan.transfer(src, dst, 300)
                yield from lan.transfer(dst, src, 8192)
        sim.spawn(talker(web, db))
        sim.spawn(talker(db, web))
        sim.run()
        return 4000

    return {
        "sim.push_pop_per_s": rate(push_pop, budget),
        "sim.resume_per_s": rate(resume, budget),
        "machine.cpu_execute_1_per_s": rate(cpu_execute(1), budget),
        "machine.cpu_execute_4_per_s": rate(cpu_execute(4), budget),
        "net.transfer_per_s": rate(transfer, budget),
    }


def timeout_cancel_rate(budget: float) -> Dict[str, float]:
    """Sleepers whose timeouts a deadline interrupt cancels -- the
    open-loop population's pattern."""
    from repro.sim.kernel import Interrupt, Simulator

    def cancel() -> int:
        sim = Simulator()

        def sleeper():
            try:
                yield 600.0
            except Interrupt:
                return

        sleepers = [sim.spawn(sleeper()) for __ in range(5000)]

        def deadline():
            yield 1.0
            for proc in sleepers:
                proc.interrupt("deadline")
        sim.spawn(deadline())
        sim.run()
        return len(sleepers)

    return {"sim.timeout_cancel_per_s": rate(cancel, budget)}


# -- cluster, cache, shard, topology, analytic -------------------------------------

def scaleout_rates(budget: float) -> Dict[str, float]:
    from repro.analytic.mva import solve_mva
    from repro.cache.lru import LruStore
    from repro.cluster.balancer import LoadBalancer
    from repro.shard.routing import shard_index
    from repro.topology.spec import parse_topology

    def lru() -> int:
        # 1 MB of 512-byte values holds ~1800 of the 4000 keys: hits,
        # misses and evictions all occur.
        store = LruStore(1 << 20)
        rng = random.Random(2)
        for now in range(20000):
            key = int(rng.paretovariate(1.2)) % 4000
            if store.get(key, float(now)) is None:
                store.put(key, 512, now + 300.0, (("items", key % 50),))
        return 20000

    def route() -> int:
        for entity in range(20000):
            shard_index("customer", entity, 288000, 4)
        return 20000

    def pick() -> int:
        balancer = LoadBalancer("gen", ("servlet", "servlet#2", "servlet#3"),
                                policy="least_connections")
        for __ in range(5000):
            first = balancer.acquire()
            second = balancer.acquire()
            balancer.release(first)
            balancer.release(second)
        return 10000

    names = [point[0] for point in
             workloads.PAPER6_POINTS + workloads.SCALEOUT_POINTS]

    def parse() -> int:
        for name in names:
            parse_topology(name)
        return len(names)

    demands = {"web": 0.004, "servlet": 0.011, "db": 0.052, "net": 0.002}

    def mva() -> int:
        solve_mva(demands, 600)
        return 1

    return {
        "cache.lru_get_set_per_s": rate(lru, budget),
        "shard.route_per_s": rate(route, budget),
        "cluster.pick_per_s": rate(pick, budget),
        "topology.parse_per_s": rate(parse, budget),
        "analytic.mva_solve_per_s": rate(mva, budget),
    }


# -- db -----------------------------------------------------------------------

def db_rates(budget: float) -> Dict[str, float]:
    """Statement rates on a bare :class:`Database` through a native
    driver connection: 2,000 rows in 40 groups, one primary key."""
    from repro.db.driver import NativeDriver
    from repro.db.engine import Database

    conn = NativeDriver(Database("bench")).connect()
    execute = conn.execute
    execute("CREATE TABLE bench (id INT PRIMARY KEY, grp INT, v INT, "
            "body VARCHAR(40))")
    rows = 2000
    for i in range(1, rows + 1):
        execute("INSERT INTO bench (id, grp, v, body) VALUES (?, ?, ?, ?)",
                (i, i % 40, i, f"row {i}"))
    out: Dict[str, float] = {}

    def aggregate() -> int:
        result = execute("SELECT grp, SUM(v) AS total FROM bench "
                         "GROUP BY grp ORDER BY total DESC LIMIT 10")
        if len(result.rows) != 10:
            raise RuntimeError(f"aggregate returned {len(result.rows)} rows")
        return rows
    out["db.aggregate_rows_per_s"] = rate(aggregate, budget)

    counter = [0]

    def prepare_miss() -> int:
        # A literal in the text makes every statement a plan-cache miss:
        # lex + parse + plan + execute.
        for __ in range(200):
            counter[0] += 1
            execute(f"SELECT v FROM bench WHERE id = {counter[0] % rows + 1} "
                    f"AND v <> -{counter[0]}")
        return 200
    out["db.prepare_miss_per_s"] = rate(prepare_miss, budget)

    def point_select() -> int:
        for i in range(1, 1001):
            execute("SELECT v FROM bench WHERE id = ?", (i,))
        return 1000
    out["db.point_select_per_s"] = rate(point_select, budget)

    def update() -> int:
        for i in range(1, 1001):
            execute("UPDATE bench SET v = v + 1 WHERE id = ?", (i,))
        return 1000
    out["db.update_per_s"] = rate(update, budget)

    next_id = [rows]

    def insert() -> int:
        for __ in range(1000):
            next_id[0] += 1
            execute("INSERT INTO bench (id, grp, v, body) "
                    "VALUES (?, ?, ?, ?)",
                    (next_id[0], next_id[0] % 40, 1, "fresh"))
        return 1000
    out["db.insert_per_s"] = rate(insert, budget)
    return out
