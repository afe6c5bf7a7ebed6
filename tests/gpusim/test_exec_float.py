"""Semantics tests: FP32 opcodes."""

import numpy as np

from tests.gpusim.helpers import fbits, lanes_f32, on_stepping_tier, run_lanes

LANES = np.arange(32, dtype=np.float32)


class TestArithmetic:
    def test_fadd(self, device):
        body = f"    I2F R1, R50 ;\n    FADD R0, R1, {fbits(0.5)} ;"
        assert np.allclose(lanes_f32(run_lanes(device, body)), LANES + 0.5)

    def test_fadd_negated_operand(self, device):
        body = f"    I2F R1, R50 ;\n    FADD R0, {fbits(10.0)}, -R1 ;"
        assert np.allclose(lanes_f32(run_lanes(device, body)), 10.0 - LANES)

    def test_fadd_abs_operand(self, device):
        body = (
            f"    I2F R1, R50 ;\n    FADD R2, {fbits(-100.0)}, R1 ;\n"
            "    FADD R0, |R2|, RZ ;"
        )
        assert np.allclose(lanes_f32(run_lanes(device, body)), np.abs(LANES - 100.0))

    def test_fmul(self, device):
        body = f"    I2F R1, R50 ;\n    FMUL R0, R1, {fbits(2.5)} ;"
        assert np.allclose(lanes_f32(run_lanes(device, body)), LANES * 2.5)

    def test_ffma(self, device):
        body = (
            f"    I2F R1, R50 ;\n    FFMA R0, R1, {fbits(3.0)}, {fbits(-1.0)} ;"
        )
        assert np.allclose(lanes_f32(run_lanes(device, body)), LANES * 3.0 - 1.0)

    def test_fmnmx(self, device):
        body = f"    I2F R1, R50 ;\n    FMNMX.MAX R0, R1, {fbits(15.5)} ;"
        assert np.allclose(
            lanes_f32(run_lanes(device, body)), np.maximum(LANES, 15.5)
        )

    def test_fsel(self, device):
        body = (
            "    ISETP.LT P0, R50, 10 ;\n"
            f"    FSEL R0, {fbits(1.0)}, {fbits(-1.0)}, P0 ;"
        )
        out = lanes_f32(run_lanes(device, body))
        assert np.allclose(out, np.where(np.arange(32) < 10, 1.0, -1.0))

    def test_fsetp(self, device):
        body = (
            f"    I2F R1, R50 ;\n    FSETP.GT P0, R1, {fbits(20.0)} ;\n"
            "    MOV R0, RZ ;\n@P0 MOV R0, 1 ;"
        )
        assert (run_lanes(device, body) == (LANES > 20.0)).all()


class TestMufu:
    def test_rcp(self, device):
        body = f"    MOV32I R1, {fbits(4.0)} ;\n    MUFU.RCP R0, R1 ;"
        assert np.allclose(lanes_f32(run_lanes(device, body)), 0.25)

    def test_rcp_of_zero_is_inf(self, device):
        body = "    MUFU.RCP R0, RZ ;"
        assert np.isinf(lanes_f32(run_lanes(device, body))).all()

    def test_sqrt(self, device):
        body = f"    MOV32I R1, {fbits(9.0)} ;\n    MUFU.SQRT R0, R1 ;"
        assert np.allclose(lanes_f32(run_lanes(device, body)), 3.0)

    def test_rsq(self, device):
        body = f"    MOV32I R1, {fbits(16.0)} ;\n    MUFU.RSQ R0, R1 ;"
        assert np.allclose(lanes_f32(run_lanes(device, body)), 0.25)

    def test_sin_cos(self, device):
        sin = lanes_f32(run_lanes(device, "    I2F R1, R50 ;\n    MUFU.SIN R0, R1 ;"))
        cos = lanes_f32(run_lanes(device, "    I2F R1, R50 ;\n    MUFU.COS R0, R1 ;"))
        assert np.allclose(sin, np.sin(LANES), atol=1e-6)
        assert np.allclose(cos, np.cos(LANES), atol=1e-6)

    def test_ex2_lg2(self, device):
        ex2 = lanes_f32(run_lanes(device, "    I2F R1, R50 ;\n    MUFU.EX2 R0, R1 ;"))
        assert np.allclose(ex2[:20], np.exp2(LANES[:20]), rtol=1e-6)
        body = f"    MOV32I R1, {fbits(8.0)} ;\n    MUFU.LG2 R0, R1 ;"
        assert np.allclose(lanes_f32(run_lanes(device, body)), 3.0)


class TestConversions:
    def test_i2f_signed(self, device):
        body = "    MOV32I R1, 0xffffffff ;\n    I2F R0, R1 ;"
        assert np.allclose(lanes_f32(run_lanes(device, body)), -1.0)

    def test_i2f_unsigned(self, device):
        body = "    MOV32I R1, 0xffffffff ;\n    I2F.U32 R0, R1 ;"
        assert np.allclose(lanes_f32(run_lanes(device, body)), 4294967295.0)

    def test_f2i_truncates(self, device):
        body = f"    MOV32I R1, {fbits(3.9)} ;\n    F2I R0, R1 ;"
        assert (run_lanes(device, body) == 3).all()

    def test_f2i_negative(self, device):
        body = f"    MOV32I R1, {fbits(-2.7)} ;\n    F2I R0, R1 ;"
        assert (run_lanes(device, body).astype(np.int32) == -2).all()

    def test_f2i_u32_clamps_negative_to_zero(self, device):
        body = f"    MOV32I R1, {fbits(-5.0)} ;\n    F2I.U32 R0, R1 ;"
        assert (run_lanes(device, body) == 0).all()

    def test_f2i_nan_is_zero(self, device):
        body = "    MOV32I R1, 0x7fc00000 ;\n    F2I R0, R1 ;"
        assert (run_lanes(device, body) == 0).all()

    def test_f2f_floor_ceil_trunc(self, device):
        for mode, fn in (("FLOOR", np.floor), ("CEIL", np.ceil), ("TRUNC", np.trunc)):
            body = f"    MOV32I R1, {fbits(-2.5)} ;\n    F2F.{mode} R0, R1 ;"
            assert np.allclose(lanes_f32(run_lanes(device, body)), fn(-2.5)), mode

    def test_nan_propagates_through_fadd(self, device):
        body = "    MOV32I R1, 0x7fc00000 ;\n    FADD R0, R1, 1.0f ;"
        assert np.isnan(lanes_f32(run_lanes(device, body))).all()


# The classes above run block-compiled (the root ``device`` fixture);
# these copies check the same expected values on the stepping tier.
TestArithmeticStep = on_stepping_tier(TestArithmetic)
TestMufuStep = on_stepping_tier(TestMufu)
TestConversionsStep = on_stepping_tier(TestConversions)
