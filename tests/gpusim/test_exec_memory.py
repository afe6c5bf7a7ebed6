"""Semantics tests: loads, stores, atomics, local and constant memory."""

import numpy as np
import pytest

from repro.errors import MemoryViolation
from repro.sass import assemble
from tests.conftest import read_f32, read_u32, write_f32, write_u32
from tests.gpusim.helpers import fbits, on_stepping_tier, run_lanes

LANES = np.arange(32, dtype=np.int64)


class TestGlobalLoadStore:
    def test_ldg(self, device):
        data = device.malloc(4 * 32)
        write_u32(device, data, np.arange(32) * 3)
        body = (
            "    MOV R1, c[0x0][0x4] ;\n"
            "    ISCADD R2, R50, R1, 2 ;\n"
            "    LDG.32 R0, [R2] ;"
        )
        out = run_lanes(device, body, params=[data])
        assert (out == LANES * 3).all()

    def test_ldg_with_offset(self, device):
        data = device.malloc(4 * 40)
        write_u32(device, data, np.arange(40))
        body = (
            "    MOV R1, c[0x0][0x4] ;\n"
            "    ISCADD R2, R50, R1, 2 ;\n"
            "    LDG.32 R0, [R2+0x10] ;"
        )
        out = run_lanes(device, body, params=[data])
        assert (out == LANES + 4).all()

    def test_stg_then_ldg_64(self, device):
        text = """
.kernel k
.params 1
    S2R R1, SR_TID.X ;
    MOV R2, c[0x0][0x0] ;
    ISCADD R3, R1, R2, 3 ;
    I2F R4, R1 ;
    F2F.F64.F32 R6, R4 ;
    STG.64 [R3], R6 ;
    LDG.64 R8, [R3] ;
    DADD R10, R8, R8 ;
    STG.64 [R3], R10 ;
    EXIT ;
"""
        out_buf = device.malloc(8 * 32)
        device.launch(assemble(text).get("k"), 1, 32, [out_buf])
        raw = np.frombuffer(device.global_mem.read_bytes(out_buf, 8 * 32), np.float64)
        assert np.allclose(raw, 2.0 * np.arange(32))

    def test_kernel_oob_raises(self, device):
        text = """
.kernel k
.params 0
    MOV32I R1, 0x3ffff0 ;
    LDG.32 R0, [R1] ;
    EXIT ;
"""
        with pytest.raises(MemoryViolation):
            device.launch(assemble(text).get("k"), 1, 1, [])
        assert any("Xid" in line for line in device.dmesg)


class TestSharedMemory:
    def test_sts_lds_roundtrip(self, device):
        text = """
.kernel k
.params 1
.shared 128
    S2R R1, SR_TID.X ;
    SHL R2, R1, 2 ;
    IMUL R3, R1, R1 ;
    STS.32 [R2], R3 ;
    BAR.SYNC ;
    LDS.32 R4, [R2] ;
    MOV R5, c[0x0][0x0] ;
    ISCADD R6, R1, R5, 2 ;
    STG.32 [R6], R4 ;
    EXIT ;
"""
        out = device.malloc(4 * 32)
        device.launch(assemble(text).get("k"), 1, 32, [out])
        assert (read_u32(device, out, 32) == np.arange(32) ** 2).all()

    def test_shared_oob_raises(self, device):
        text = """
.kernel k
.shared 16
    MOV R1, 0x40 ;
    LDS.32 R0, [R1] ;
    EXIT ;
"""
        with pytest.raises(MemoryViolation, match="shared"):
            device.launch(assemble(text).get("k"), 1, 1, [])


class TestLocalMemory:
    def test_stl_ldl_per_thread(self, device):
        text = """
.kernel k
.params 1
.local 16
    S2R R1, SR_TID.X ;
    STL.32 [RZ], R1 ;
    STL.32 [RZ+0x4], RZ ;
    LDL.32 R2, [RZ] ;
    MOV R3, c[0x0][0x0] ;
    ISCADD R4, R1, R3, 2 ;
    STG.32 [R4], R2 ;
    EXIT ;
"""
        out = device.malloc(4 * 32)
        device.launch(assemble(text).get("k"), 1, 32, [out])
        # Each thread reads back its own value — local memory is private.
        assert (read_u32(device, out, 32) == np.arange(32)).all()

    def test_local_oob_raises(self, device):
        text = """
.kernel k
.local 8
    MOV R1, 0x10 ;
    LDL.32 R0, [R1] ;
    EXIT ;
"""
        with pytest.raises(MemoryViolation, match="local"):
            device.launch(assemble(text).get("k"), 1, 1, [])


class TestConstants:
    def test_ldc(self, device):
        body = "    LDC.32 R0, c[0x0][0x4] ;"
        out = run_lanes(device, body, params=[1234])
        assert (out == 1234).all()

    def test_const_alu_operand(self, device):
        body = "    IADD R0, R50, c[0x0][0x4] ;"
        out = run_lanes(device, body, params=[1000])
        assert (out == LANES + 1000).all()


class TestAtomics:
    def test_red_add_u32(self, device):
        counter = device.malloc(4)
        write_u32(device, counter, np.zeros(1))
        body = (
            "    MOV R1, c[0x0][0x4] ;\n"
            "    MOV R2, 1 ;\n"
            "    RED.ADD [R1], R2 ;\n"
            "    MOV R0, RZ ;"
        )
        run_lanes(device, body, params=[counter])
        assert read_u32(device, counter, 1)[0] == 32

    def test_red_add_f32(self, device):
        acc = device.malloc(4)
        write_f32(device, acc, np.zeros(1))
        body = (
            "    MOV R1, c[0x0][0x4] ;\n"
            f"    MOV32I R2, {fbits(0.5)} ;\n"
            "    RED.ADD.F32 [R1], R2 ;\n"
            "    MOV R0, RZ ;"
        )
        run_lanes(device, body, params=[acc])
        assert read_f32(device, acc, 1)[0] == 16.0

    def test_atom_returns_old_value(self, device):
        counter = device.malloc(4)
        write_u32(device, counter, np.zeros(1))
        body = (
            "    MOV R1, c[0x0][0x4] ;\n"
            "    MOV R2, 1 ;\n"
            "    ATOMG.ADD R0, [R1], R2 ;"
        )
        out = run_lanes(device, body, params=[counter])
        # Lanes serialise in lane order: lane i sees old value i.
        assert (np.sort(out) == np.arange(32)).all()
        assert read_u32(device, counter, 1)[0] == 32

    def test_atom_max(self, device):
        cell = device.malloc(4)
        write_u32(device, cell, np.zeros(1))
        body = (
            "    MOV R1, c[0x0][0x4] ;\n"
            "    ATOMG.MAX R0, [R1], R50 ;"
        )
        run_lanes(device, body, params=[cell])
        assert read_u32(device, cell, 1)[0] == 31

    def test_atom_exch(self, device):
        cell = device.malloc(4)
        write_u32(device, cell, np.array([999]))
        body = (
            "    MOV R1, c[0x0][0x4] ;\n"
            "    ATOMG.EXCH R0, [R1], R50 ;"
        )
        out = run_lanes(device, body, params=[cell])
        assert out[0] == 999  # lane 0 sees the initial value
        assert read_u32(device, cell, 1)[0] == 31  # last lane's value sticks

    def test_atoms_shared(self, device):
        text = """
.kernel k
.params 1
.shared 16
    S2R R1, SR_TID.X ;
    MOV R2, 1 ;
    ATOMS.ADD R3, [RZ], R2 ;
    BAR.SYNC ;
    LDS.32 R4, [RZ] ;
    ISETP.EQ P0, R1, 0 ;
@!P0 EXIT ;
    MOV R5, c[0x0][0x0] ;
    STG.32 [R5], R4 ;
    EXIT ;
"""
        out = device.malloc(4)
        device.launch(assemble(text).get("k"), 1, 32, [out])
        assert read_u32(device, out, 1)[0] == 32


# The classes above run block-compiled (the root ``device`` fixture);
# these copies check the same expected values on the stepping tier.
TestGlobalLoadStoreStep = on_stepping_tier(TestGlobalLoadStore)
TestSharedMemoryStep = on_stepping_tier(TestSharedMemory)
TestLocalMemoryStep = on_stepping_tier(TestLocalMemory)
TestConstantsStep = on_stepping_tier(TestConstants)
TestAtomicsStep = on_stepping_tier(TestAtomics)
