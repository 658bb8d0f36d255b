"""E10: scaling across the Virtex family (XCV50 .. XCV1000)."""

import pytest

from repro.arch import wires
from repro.bench.experiments import run_e10
from repro.device.fabric import Device
from repro.jbits import ConfigMemory, write_bitstream
from repro.routers.maze import route_maze


@pytest.mark.parametrize("part", ["XCV50", "XCV300", "XCV1000"])
def test_device_build(benchmark, part):
    benchmark(Device, part)


@pytest.mark.parametrize("part", ["XCV50", "XCV300"])
def test_cross_chip_route(benchmark, part):
    device = Device(part)
    arch = device.arch
    src = device.resolve(1, 1, wires.S0_X)
    sink = device.resolve(arch.rows - 2, arch.cols - 2, wires.S1G[2])

    def run():
        return route_maze(device, [src], {sink}, heuristic_weight=0.8)

    res = benchmark(run)
    assert res.plan


@pytest.mark.parametrize("part", ["XCV50", "XCV300"])
def test_full_bitstream_write(benchmark, part):
    mem = ConfigMemory(Device(part).arch)

    def run():
        return write_bitstream(mem)

    assert len(benchmark(run)) > 0


def test_shape_scaling_table():
    table = run_e10(parts=("XCV50", "XCV300", "XCV1000"))
    clbs = [r[1] for r in table.rows]
    frames = [r[table.headers.index("config frames")] for r in table.rows]
    assert clbs == sorted(clbs)
    assert frames == sorted(frames)
    # paper family bounds: 16x24 -> 64x96 is a 16x CLB range
    assert clbs[-1] == clbs[0] * 16
