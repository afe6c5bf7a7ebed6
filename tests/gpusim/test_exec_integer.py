"""Semantics tests: integer, logic and shift opcodes."""

import numpy as np
import pytest

from repro.errors import DeviceTrap
from repro.sass import assemble
from tests.gpusim.helpers import on_stepping_tier, run_lanes

LANES = np.arange(32, dtype=np.int64)


class TestArithmetic:
    def test_iadd(self, device):
        out = run_lanes(device, "    IADD R0, R50, 100 ;")
        assert (out == LANES + 100).all()

    def test_iadd_wraps(self, device):
        out = run_lanes(device, "    MOV32I R1, 0xffffffff ;\n    IADD R0, R1, 2 ;")
        assert (out == 1).all()

    def test_iadd_negated_source(self, device):
        out = run_lanes(device, "    MOV R1, 10 ;\n    IADD R0, R1, -R50 ;")
        assert (out.astype(np.int32) == 10 - LANES).all()

    def test_iadd3(self, device):
        out = run_lanes(device, "    IADD3 R0, R50, R50, 5 ;")
        assert (out == 2 * LANES + 5).all()

    def test_imul(self, device):
        out = run_lanes(device, "    IMUL R0, R50, 7 ;")
        assert (out == LANES * 7).all()

    def test_imul_hi(self, device):
        body = "    MOV32I R1, 0x10000 ;\n    IMUL.HI R0, R1, R1 ;"
        assert (run_lanes(device, body) == 1).all()

    def test_imad(self, device):
        out = run_lanes(device, "    IMAD R0, R50, 3, 11 ;")
        assert (out == LANES * 3 + 11).all()

    def test_iabs(self, device):
        body = "    MOV R1, RZ ;\n    IADD R1, R1, -R50 ;\n    IABS R0, R1 ;"
        assert (run_lanes(device, body) == LANES).all()

    def test_iscadd(self, device):
        out = run_lanes(device, "    ISCADD R0, R50, 1000, 2 ;")
        assert (out == 4 * LANES + 1000).all()

    def test_imnmx_min_signed(self, device):
        body = "    MOV32I R1, -5 ;\n    IMNMX.MIN R0, R50, R1 ;"
        out = run_lanes(device, body).astype(np.int32)
        assert (out == -5).all()

    def test_imnmx_max_unsigned(self, device):
        body = "    MOV32I R1, 0xffffffff ;\n    IMNMX.MAX.U32 R0, R50, R1 ;"
        assert (run_lanes(device, body) == 0xFFFFFFFF).all()


class TestComparisons:
    def test_isetp_lt_writes_pred(self, device):
        body = (
            "    ISETP.LT P0, R50, 16 ;\n"
            "    MOV R0, RZ ;\n"
            "@P0 MOV R0, 1 ;"
        )
        out = run_lanes(device, body)
        assert (out == (LANES < 16)).all()

    def test_isetp_signed_vs_unsigned(self, device):
        # -1 < 1 signed, but 0xffffffff > 1 unsigned
        body_signed = (
            "    MOV32I R1, 0xffffffff ;\n"
            "    ISETP.LT P0, R1, 1 ;\n"
            "    MOV R0, RZ ;\n@P0 MOV R0, 1 ;"
        )
        body_unsigned = (
            "    MOV32I R1, 0xffffffff ;\n"
            "    ISETP.LT.U32 P0, R1, 1 ;\n"
            "    MOV R0, RZ ;\n@P0 MOV R0, 1 ;"
        )
        assert (run_lanes(device, body_signed) == 1).all()
        assert (run_lanes(device, body_unsigned) == 0).all()

    def test_isetp_and_combination(self, device):
        body = (
            "    ISETP.LT P1, R50, 16 ;\n"
            "    ISETP.GT.AND P0, R50, 7, P1 ;\n"
            "    MOV R0, RZ ;\n@P0 MOV R0, 1 ;"
        )
        out = run_lanes(device, body)
        assert (out == ((LANES > 7) & (LANES < 16))).all()

    def test_sel(self, device):
        body = (
            "    ISETP.GE P0, R50, 16 ;\n"
            "    SEL R0, 111, 222, P0 ;"
        )
        out = run_lanes(device, body)
        assert (out == np.where(LANES >= 16, 111, 222)).all()


class TestLogicAndShifts:
    def test_lop_and_or_xor(self, device):
        assert (run_lanes(device, "    LOP.AND R0, R50, 1 ;") == (LANES & 1)).all()
        assert (run_lanes(device, "    LOP.OR R0, R50, 0x100 ;") == (LANES | 0x100)).all()
        assert (run_lanes(device, "    LOP.XOR R0, R50, 0xf ;") == (LANES ^ 0xF)).all()

    def test_lop_not(self, device):
        out = run_lanes(device, "    LOP.NOT R0, R50 ;")
        assert (out == (~LANES & 0xFFFFFFFF)).all()

    def test_lop3_lut(self, device):
        # LUT 0xE8 = majority(a, b, c)
        body = (
            "    MOV R1, 0xc ;\n    MOV R2, 0xa ;\n    MOV R3, 0x9 ;\n"
            "    LOP3.LUT R0, R1, R2, R3, 0xe8 ;"
        )
        out = run_lanes(device, body)
        assert (out == ((0xC & 0xA) | (0xA & 0x9) | (0xC & 0x9))).all()

    def test_shl(self, device):
        assert (run_lanes(device, "    SHL R0, 1, R50 ;") == (1 << LANES)).all()

    def test_shl_over_31_is_zero(self, device):
        assert (run_lanes(device, "    SHL R0, 1, 40 ;") == 0).all()

    def test_shr_unsigned(self, device):
        body = "    MOV32I R1, 0x80000000 ;\n    SHR.U32 R0, R1, 4 ;"
        assert (run_lanes(device, body) == 0x08000000).all()

    def test_shr_arithmetic(self, device):
        body = "    MOV32I R1, 0x80000000 ;\n    SHR.S32 R0, R1, 4 ;"
        assert (run_lanes(device, body) == 0xF8000000).all()

    def test_shr_s32_ignores_source_modifiers(self, device):
        # Shifts read raw bits: -R1 is R1, as for SHL and unsigned SHR.
        body = "    MOV R1, 100 ;\n    SHR.S32 R0, -R1, 2 ;"
        assert (run_lanes(device, body) == 25).all()

    def test_shf_funnel_right(self, device):
        body = (
            "    MOV32I R1, 0x00000001 ;\n    MOV32I R2, 0x80000000 ;\n"
            "    SHF.R R0, R2, 31, R1 ;"
        )
        # (0x00000001_80000000 >> 31) & mask32 = 3
        assert (run_lanes(device, body) == 3).all()

    def test_popc(self, device):
        assert (run_lanes(device, "    POPC R0, R50 ;") ==
                np.array([bin(i).count("1") for i in range(32)])).all()

    def test_flo(self, device):
        out = run_lanes(device, "    FLO R0, R50 ;")
        expected = np.array(
            [0xFFFFFFFF if i == 0 else i.bit_length() - 1 for i in range(32)],
            dtype=np.uint32,
        )
        assert (out == expected).all()

    def test_bfe(self, device):
        # Extract 8 bits from position 4 of 0xABCD: control = 4 | (8 << 8)
        body = "    MOV32I R1, 0xabcd ;\n    BFE R0, R1, 0x804 ;"
        assert (run_lanes(device, body) == ((0xABCD >> 4) & 0xFF)).all()

    def test_bfi(self, device):
        # Insert 0xF at position 8, width 4 into zero.
        body = "    MOV R1, 0xf ;\n    BFI R0, R1, 0x408, RZ ;"
        assert (run_lanes(device, body) == 0xF00).all()

    def test_i2i_s8_sign_extends(self, device):
        body = "    MOV R1, 0x80 ;\n    I2I.S32.S8 R0, R1 ;"
        assert (run_lanes(device, body) == 0xFFFFFF80).all()

    def test_i2i_u16_zero_extends(self, device):
        body = "    MOV32I R1, 0x1ffff ;\n    I2I.S32.U16 R0, R1 ;"
        assert (run_lanes(device, body) == 0xFFFF).all()


class TestUnimplementedOpcode:
    def test_executing_non_executable_opcode_traps(self, device):
        kernel = assemble(".kernel k\n    HADD2 R0, R1, R2 ;\n    EXIT ;").get("k")
        with pytest.raises(DeviceTrap, match="no execution semantics"):
            device.launch(kernel, 1, 32, [])


# The classes above run block-compiled (the root ``device`` fixture);
# these copies check the same expected values on the stepping tier.
TestArithmeticStep = on_stepping_tier(TestArithmetic)
TestComparisonsStep = on_stepping_tier(TestComparisons)
TestLogicAndShiftsStep = on_stepping_tier(TestLogicAndShifts)
TestUnimplementedOpcodeStep = on_stepping_tier(TestUnimplementedOpcode)
