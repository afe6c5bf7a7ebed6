"""Semantics tests: FP64 opcodes (register-pair semantics)."""

import numpy as np

from tests.gpusim.helpers import fbits, lanes_f64, on_stepping_tier, run_lanes

LANES = np.arange(32, dtype=np.float64)


def _widen(reg_src: str, reg_dst: str) -> str:
    return f"    F2F.F64.F32 {reg_dst}, {reg_src} ;"


class TestFp64Arithmetic:
    def test_f2d_then_dadd(self, device):
        body = (
            "    I2F R1, R50 ;\n"
            + _widen("R1", "R2")
            + f"\n    MOV32I R5, {fbits(0.25)} ;\n"
            + _widen("R5", "R6")
            + "\n    DADD R0, R2, R6 ;"
        )
        out = lanes_f64(run_lanes(device, body, pair=True))
        assert np.allclose(out, LANES + 0.25)

    def test_dmul(self, device):
        body = (
            "    I2F R1, R50 ;\n"
            + _widen("R1", "R2")
            + "\n    DMUL R0, R2, R2 ;"
        )
        out = lanes_f64(run_lanes(device, body, pair=True))
        assert np.allclose(out, LANES * LANES)

    def test_dfma(self, device):
        body = (
            "    I2F R1, R50 ;\n"
            + _widen("R1", "R2")
            + f"\n    MOV32I R5, {fbits(2.0)} ;\n"
            + _widen("R5", "R6")
            + f"\n    MOV32I R12, {fbits(1.0)} ;\n"
            + _widen("R12", "R14")
            + "\n    DFMA R0, R2, R6, R14 ;"
        )
        out = lanes_f64(run_lanes(device, body, pair=True))
        assert np.allclose(out, LANES * 2.0 + 1.0)

    def test_dmnmx(self, device):
        body = (
            "    I2F R1, R50 ;\n"
            + _widen("R1", "R2")
            + f"\n    MOV32I R5, {fbits(10.0)} ;\n"
            + _widen("R5", "R6")
            + "\n    DMNMX.MIN R0, R2, R6 ;"
        )
        out = lanes_f64(run_lanes(device, body, pair=True))
        assert np.allclose(out, np.minimum(LANES, 10.0))

    def test_dadd_negated(self, device):
        body = (
            "    I2F R1, R50 ;\n"
            + _widen("R1", "R2")
            + "\n    DADD R0, R2, -R2 ;"
        )
        out = lanes_f64(run_lanes(device, body, pair=True))
        assert np.allclose(out, 0.0)

    def test_dsetp(self, device):
        body = (
            "    I2F R1, R50 ;\n"
            + _widen("R1", "R2")
            + f"\n    MOV32I R5, {fbits(15.0)} ;\n"
            + _widen("R5", "R6")
            + "\n    DSETP.GE P0, R2, R6 ;\n"
            + "    MOV R0, RZ ;\n@P0 MOV R0, 1 ;"
        )
        out = run_lanes(device, body)
        assert (out == (LANES >= 15.0)).all()

    def test_d2f_narrowing(self, device):
        body = (
            "    I2F R1, R50 ;\n"
            + _widen("R1", "R2")
            + "\n    DMUL R2, R2, R2 ;\n"
            + "    F2F.F32.F64 R0, R2 ;"
        )
        out = run_lanes(device, body)
        assert np.allclose(out.view(np.float32), (LANES * LANES).astype(np.float32))

    def test_fp64_precision_beyond_fp32(self, device):
        # 1 + 2^-40 is representable in FP64 but rounds away in FP32.
        tiny_hi = 0x3E700000  # FP64 bits of 2^-24... use exact: build via DADD
        body = (
            f"    MOV32I R1, {fbits(1.0)} ;\n"
            + _widen("R1", "R2")
            + f"\n    MOV32I R5, {fbits(2.0 ** -30)} ;\n"
            + _widen("R5", "R6")
            + "\n    DADD R0, R2, R6 ;"
        )
        out = lanes_f64(run_lanes(device, body, pair=True))
        assert (out == 1.0 + 2.0**-30).all()
        assert (out != 1.0).all()


# The classes above run block-compiled (the root ``device`` fixture);
# these copies check the same expected values on the stepping tier.
TestFp64ArithmeticStep = on_stepping_tier(TestFp64Arithmetic)
