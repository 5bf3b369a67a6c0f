"""Tests for CPU, disk, and machine models."""

import pytest

from repro.machine import Machine, MachineSpec, paper_machine_spec
from repro.machine.cpu import Cpu
from repro.sim import Interrupt, Simulator
from tests.test_kernel_speed2 import (PerQuantumCpu,
                                      assert_cpu_matches_reference)


def test_cpu_executes_demand_in_virtual_time():
    sim = Simulator()
    cpu = Cpu(sim)

    def job():
        yield from cpu.execute(0.5)

    sim.spawn(job())
    sim.run()
    assert sim.now == pytest.approx(0.5)
    assert cpu.busy_time() == pytest.approx(0.5)


def test_cpu_speed_scales_demand():
    sim = Simulator()
    cpu = Cpu(sim, speed=2.0)

    def job():
        yield from cpu.execute(1.0)

    sim.spawn(job())
    sim.run()
    assert sim.now == pytest.approx(0.5)


def test_cpu_work_conserving_under_contention():
    sim = Simulator()
    cpu = Cpu(sim)
    ends = []

    def job(i):
        yield from cpu.execute(1.0)
        ends.append((i, sim.now))

    for i in range(3):
        sim.spawn(job(i))
    sim.run()
    # Round-robin: equal jobs finish together near the 3-second mark, in
    # arrival order, and the CPU never idles.
    assert [i for i, __ in ends] == [0, 1, 2]
    assert sim.now == pytest.approx(3.0)
    assert all(end > 2.99 for __, end in ends)
    assert cpu.busy_time() == pytest.approx(3.0)


def test_cpu_short_job_not_starved_behind_long_job():
    """Time-slicing: a 2 ms job behind a 1 s job finishes in
    milliseconds, not after the long job."""
    sim = Simulator()
    cpu = Cpu(sim)
    done = {}

    def job(name, demand):
        yield from cpu.execute(demand)
        done[name] = sim.now

    sim.spawn(job("long", 1.0))
    sim.spawn(job("short", 0.002))
    sim.run()
    assert done["short"] < 0.01
    assert done["long"] == pytest.approx(1.002)


def test_cpu_busy_time_excludes_idle_gaps():
    sim = Simulator()
    cpu = Cpu(sim)

    def job():
        yield from cpu.execute(1.0)
        yield 5.0  # idle gap
        yield from cpu.execute(2.0)

    sim.spawn(job())
    sim.run()
    assert sim.now == pytest.approx(8.0)
    assert cpu.busy_time() == pytest.approx(3.0)


def test_cpu_utilization_under_saturation():
    """With more offered work than capacity, busy fraction reaches 1."""
    sim = Simulator()
    cpu = Cpu(sim)

    def job():
        yield from cpu.execute(0.1)

    for _ in range(100):
        sim.spawn(job())
    sim.run()
    assert sim.now == pytest.approx(10.0)
    assert cpu.busy_time() / sim.now == pytest.approx(1.0)


def test_cpu_rejects_bad_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        Cpu(sim, speed=0)
    cpu = Cpu(sim)
    with pytest.raises(ValueError):
        list(cpu.execute(-1))


# Interrupting a process parked on a core, one test per state of its job
# (see kernel.CpuGrant).  Every script is run on ``Cpu`` and on the
# per-quantum reference: the next job must get the core at the same
# instant, nothing may leak (core idle, run queue empty, kernel
# quiescent -- no stranded ``_live`` count), and the interrupted
# process's next ``execute`` on that core must complete.  Jobs are
# (arrival, [(demand, pause after it), ...]); the interrupter starts
# 0.04 ms off the 0.25 ms grid, so no interrupt ties with a slice end.

def test_interrupt_job_queued_behind_two_others():
    log = assert_cpu_matches_reference(
        jobs=[(0.00025, [(0.003, 0.0)]), (0.0005, [(0.002, 0.0)]),
              (0.00075, [(0.002, 0.0), (0.001, 0.0)])],
        script=[(0.00086, [2])])
    assert [entry[:2] for entry in log] == [
        ("ctl", [True]), ("j2", "interrupted"), ("j2", "done"),
        ("j1", "done"), ("j0", "done")]


def test_interrupt_job_mid_slice_with_a_waiting_competitor():
    # j0's batch is preempted at 1.25 ms; j1 is cut down 0.45 ms into
    # its first slice, with j0 back on the run queue.
    log = assert_cpu_matches_reference(
        jobs=[(0.00025, [(0.003, 0.0)]),
              (0.0005, [(0.003, 0.0), (0.0005, 0.0)])],
        script=[(0.00166, [1])])
    assert [entry[:2] for entry in log] == [
        ("ctl", [True]), ("j1", "interrupted"), ("j1", "done"),
        ("j0", "done")]


def test_interrupt_job_mid_batch_after_its_wake_was_pulled_forward():
    # j1 queues at 1.5 ms and pulls j0's batch wake to 2.25 ms; j0 is
    # interrupted at 1.9 ms and j1 runs from there.
    log = assert_cpu_matches_reference(
        jobs=[(0.00025, [(0.005, 0.0), (0.0005, 0.0)]),
              (0.0015, [(0.001, 0.0)])],
        script=[(0.00186, [0])])
    assert log[2] == ("j1", "done", 0.0019000000000000002 + 0.001)


def test_competitor_queues_while_the_batch_holder_has_an_interrupt_pending():
    # One instant: j1 is roused from its pause, j0 (mid-batch) is
    # interrupted, j1 runs first and queues on the still-held core.
    log = assert_cpu_matches_reference(
        jobs=[(0.00025, [(0.005, 0.0), (0.0005, 0.0)]),
              (0.003, [(0.001, 0.0)])],
        script=[(0.00086, [1, 0])])
    assert [entry[:2] for entry in log] == [
        ("ctl", [True, True]), ("j1", "roused"), ("j0", "interrupted"),
        ("j1", "done"), ("j0", "done")]


@pytest.mark.parametrize("make_cpu", [PerQuantumCpu, Cpu])
def test_job_in_the_hand_off_marker_window_is_not_interruptible(make_cpu):
    """A process that finishes its demand runs ahead of the next job's
    grant (ordering rule 1): what it sees is a job that already owns the
    slot -- ``interrupt()`` returns False, as for any process on the
    ready queue."""
    sim = Simulator()
    cpu = make_cpu(sim)
    log = []

    def first():
        yield from cpu.execute(0.002)
        log.append(("interrupt", procs[1].interrupt("late"), sim.now))

    def second():
        yield 0.0005
        yield from cpu.execute(0.002)
        log.append(("second done", sim.now))
        yield from cpu.execute(0.0015)
        log.append(("second again", sim.now))

    procs = [sim.spawn(first()), sim.spawn(second())]
    sim.run()
    # first [0,1] second [1,2] first [2,3] second [3,4], then 1.5 ms.
    assert log == [("interrupt", False, 0.003), ("second done", 0.004),
                   ("second again", 0.0055)]
    assert not cpu.busy and cpu.queue_length == 0
    assert sim.quiescent()


# Run-ahead slice folding (Cpu._slice_end): a saturated core whose next
# slice end is strictly the earliest live calendar entry rotates again
# without going through the calendar.  Four jobs queue inside the first
# quantum; from 1 ms on the core is alone on the calendar except for
# what each script plants.  0.001 + 0.001 + ... is exact in floats up
# to 0.008, so a timer "at 0.003" really ties with that slice end.

_FOUR = [(0.001, [(0.004, 0.0)]), (0.00125, [(0.004, 0.0)]),
         (0.0015, [(0.003, 0.0)]), (0.00175, [(0.0035, 0.0)])]


def test_timer_tied_with_a_folded_slice_end_runs_in_reference_order():
    # j4's pause ends at 0.001 + 0.002 == 0.003, the end of j1's first
    # slice; its timer was pushed first, so it queues *before* j1
    # re-joins the tail and runs at 6 and 11 ms.  A fold over the tie
    # would put it behind j1, a slice later.
    log = assert_cpu_matches_reference(
        jobs=_FOUR + [(0.001, [(None, 0.002), (0.0015, 0.0)])])
    assert log[0] == ("j4", "done", pytest.approx(0.0115))
    # The same tie as a phase boundary: run(until=0.003) stops there.
    assert_cpu_matches_reference(jobs=_FOUR, checkpoint=0.003)


def test_interrupt_between_two_folded_slice_ends_withdraws_a_queued_job():
    seen = []
    sim = Simulator()
    cpu = Cpu(sim)

    def job():
        try:
            yield from cpu.execute(0.004)
        except Interrupt:
            seen.append(("interrupted", sim.now))

    def chaos():
        yield 0.00245           # j2's first slice runs from 2 to 3 ms
        for proc in procs[2], procs[0]:
            grant = proc._waiting_on
            seen.append((grant.granted, grant._timeout_key is not None))
        seen.append(procs[0].interrupt("chaos"))

    procs = [sim.spawn(job()) for __ in range(4)]
    sim.spawn(chaos())
    sim.run()
    # The fold stopped short of the chaos timer: the running job owns a
    # real calendar entry, the queued one none, and is withdrawn at once.
    assert seen == [(True, True), (False, False), True,
                    ("interrupted", 0.00245)]
    assert sim.now == pytest.approx(0.012 + 0.001)
    assert not cpu.busy and cpu.queue_length == 0 and sim.quiescent()
    assert_cpu_matches_reference(jobs=_FOUR, script=[(0.00241, [0])])


class _CountingSimulator(Simulator):
    """Counts calendar pushes made through ``_push`` (``Cpu``'s) and
    ``step()`` calls."""

    def __init__(self):
        super().__init__()
        self.pushes = self.steps = 0

    def _push(self, time, key, fn, proc):
        self.pushes += 1
        super()._push(time, key, fn, proc)

    def step(self):
        self.steps += 1
        return super().step()


def _execute(cpu, demand):
    yield from cpu.execute(demand)


def _saturate(sim, cpu, demands):
    """A one-quantum starter holds the core while ``demands`` queue in
    the same instant, so no job ever runs alone with quanta to spare (a
    batch would draw fewer seqs than the per-quantum loop)."""
    return [sim.spawn(_execute(cpu, demand)) for demand in [0.001] + demands]


def test_step_and_run_all_advance_one_timed_entry_per_call():
    sim = _CountingSimulator()
    cpu = Cpu(sim)
    procs = _saturate(sim, cpu, [0.003] * 4)
    sim.run_all(procs[:2])      # j0's third slice is the 10th entry
    assert (sim.steps, sim.now) == (10, pytest.approx(0.010))
    assert cpu.queue_length == 2
    sim.run()                   # leaves no horizon behind for step()
    _saturate(sim, cpu, [0.003] * 4)
    times, expected, t = [], [], sim.now
    while sim.step():
        times.append(sim.now)
    for __ in range(13):        # the starter's quantum + 4 x 3 slices
        t = t + 0.001
        expected.append(t)
    assert times == expected


def test_a_saturated_core_pushes_once_per_finished_job_not_per_slice():
    demands = [0.003, 0.004, 0.0055, 0.005]
    ref, sim = _CountingSimulator(), _CountingSimulator()
    ref_cpu, cpu = PerQuantumCpu(ref), Cpu(sim)
    _saturate(ref, ref_cpu, demands)
    _saturate(sim, cpu, demands)
    ref.run()
    sim.run()
    sim.finalize_events()
    assert (sim.now, cpu.busy_time()) == (ref.now, ref_cpu.busy_time())
    assert sim.events_processed == ref.events_processed
    # One seq per slice on both sides: 1 + 3 + 4 + 6 + 5 slices ...
    assert sim._seq == ref._seq == 19
    # ... but one calendar push per grant that follows a finished job
    # (the last to finish leaves the core idle).
    assert sim.pushes == 4
    assert sim._live == 0 and sim.quiescent() and not cpu.busy


def test_disk_io_takes_access_plus_transfer_time():
    sim = Simulator()
    machine = Machine(sim, "db")

    def job():
        yield from machine.disk.io(35_000_00)  # 3.5 MB at 35 MB/s = 0.1 s

    sim.spawn(job())
    sim.run()
    assert sim.now == pytest.approx(0.009 + 0.1)
    assert machine.disk.transfers == 1
    assert machine.disk.bytes_moved == 3_500_000


def test_machine_memory_gauge():
    sim = Simulator()
    machine = Machine(sim, "web")
    machine.allocate_memory(100)
    machine.allocate_memory(50)
    assert machine.memory_used_mb == 150
    machine.free_memory(200)
    assert machine.memory_used_mb == 0
    with pytest.raises(ValueError):
        machine.allocate_memory(-1)


def test_paper_machine_spec_matches_testbed():
    spec = paper_machine_spec()
    assert spec.memory_mb == 768
    assert spec.nic_bandwidth_bps == 100e6
    assert spec.cpu_speed == 1.0


def test_custom_machine_spec():
    sim = Simulator()
    spec = MachineSpec(cpu_speed=0.6)  # the 800 MHz client boxes
    machine = Machine(sim, "client0", spec)
    assert machine.cpu.speed == 0.6
