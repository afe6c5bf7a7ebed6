"""Semantics tests: warp-wide ops (SHFL, VOTE), predicates, special registers."""

import numpy as np
import pytest

from repro.errors import DeviceTrap
from repro.sass import assemble
from repro.sass.isa import SPECIAL_REGISTERS
from repro.sass.operands import SpecialReg
from tests.conftest import read_u32
from tests.gpusim.helpers import on_stepping_tier, run_lanes

LANES = np.arange(32, dtype=np.int64)


class TestShfl:
    def test_idx_broadcast(self, device):
        out = run_lanes(device, "    SHFL.IDX R0, R50, 5 ;")
        assert (out == 5).all()

    def test_down(self, device):
        out = run_lanes(device, "    SHFL.DOWN R0, R50, 4 ;")
        expected = np.where(LANES + 4 < 32, LANES + 4, LANES)
        assert (out == expected).all()

    def test_up(self, device):
        out = run_lanes(device, "    SHFL.UP R0, R50, 1 ;")
        expected = np.where(LANES - 1 >= 0, LANES - 1, LANES)
        assert (out == expected).all()

    def test_bfly(self, device):
        out = run_lanes(device, "    SHFL.BFLY R0, R50, 1 ;")
        assert (out == (LANES ^ 1)).all()

    def test_shfl_reduction_sums_warp(self, device):
        body = "    MOV R0, R50 ;\n" + "".join(
            f"    SHFL.DOWN R1, R0, {d} ;\n    IADD R0, R0, R1 ;\n"
            for d in (16, 8, 4, 2, 1)
        )
        out = run_lanes(device, body)
        assert out[0] == sum(range(32))

    def test_inactive_source_lane_keeps_own_value(self, device):
        # Only the first 8 lanes execute the SHFL; lane 4 reading lane 20
        # (inactive) must keep its own value.
        body = (
            "    MOV R0, R50 ;\n"
            "    ISETP.LT P0, R50, 8 ;\n"
            "@P0 SHFL.DOWN R0, R50, 16 ;"
        )
        out = run_lanes(device, body)
        assert (out[:8] == LANES[:8]).all()


class TestVote:
    def test_vote_all_true(self, device):
        body = (
            "    ISETP.GE P1, R50, 0 ;\n"
            "    VOTE.ALL P0, P1 ;\n"
            "    MOV R0, RZ ;\n@P0 MOV R0, 1 ;"
        )
        assert (run_lanes(device, body) == 1).all()

    def test_vote_all_false_when_one_lane_fails(self, device):
        body = (
            "    ISETP.LT P1, R50, 31 ;\n"
            "    VOTE.ALL P0, P1 ;\n"
            "    MOV R0, RZ ;\n@P0 MOV R0, 1 ;"
        )
        assert (run_lanes(device, body) == 0).all()

    def test_vote_any(self, device):
        body = (
            "    ISETP.EQ P1, R50, 17 ;\n"
            "    VOTE.ANY P0, P1 ;\n"
            "    MOV R0, RZ ;\n@P0 MOV R0, 1 ;"
        )
        assert (run_lanes(device, body) == 1).all()


class TestPredicateOps:
    def test_psetp_and(self, device):
        body = (
            "    ISETP.LT P1, R50, 20 ;\n"
            "    ISETP.GE P2, R50, 10 ;\n"
            "    PSETP.AND P0, P1, P2 ;\n"
            "    MOV R0, RZ ;\n@P0 MOV R0, 1 ;"
        )
        out = run_lanes(device, body)
        assert (out == ((LANES >= 10) & (LANES < 20))).all()

    def test_psetp_or_with_negation(self, device):
        body = (
            "    ISETP.LT P1, R50, 4 ;\n"
            "    ISETP.GE P2, R50, 28 ;\n"
            "    PSETP.OR P0, P1, !P2 ;\n"
            "    MOV R0, RZ ;\n@P0 MOV R0, 1 ;"
        )
        out = run_lanes(device, body)
        assert (out == ((LANES < 4) | (LANES < 28))).all()

    def test_p2r_r2p_roundtrip(self, device):
        body = (
            "    ISETP.EQ P3, R50, R50 ;\n"  # P3 = true
            "    P2R R1 ;\n"
            "    R2P PT, R1 ;\n"  # PT slot is syntactic; R2P writes P0..P6
            "    MOV R0, RZ ;\n@P3 MOV R0, 1 ;"
        )
        assert (run_lanes(device, body) == 1).all()


class TestSpecialRegisters:
    def test_laneid(self, device):
        assert (run_lanes(device, "    S2R R0, SR_LANEID ;") == LANES).all()

    def test_tid_and_ctaid_2d(self, device):
        text = """
.kernel k
.params 1
    S2R R1, SR_TID.X ;
    S2R R2, SR_TID.Y ;
    S2R R3, SR_NTID.X ;
    IMAD R4, R2, R3, R1 ;
    S2R R5, SR_CTAID.X ;
    S2R R6, SR_NTID.Y ;
    IMUL R7, R3, R6 ;
    IMAD R8, R5, R7, R4 ;
    MOV R9, c[0x0][0x0] ;
    ISCADD R10, R8, R9, 2 ;
    STG.32 [R10], R8 ;
    EXIT ;
"""
        out = device.malloc(4 * 64)
        device.launch(assemble(text).get("k"), (2, 1, 1), (8, 4, 1), [out])
        assert (read_u32(device, out, 64) == np.arange(64)).all()

    def test_nctaid(self, device):
        out = run_lanes(device, "    S2R R0, SR_NCTAID.X ;")
        assert (out == 1).all()

    def test_smid_matches_round_robin(self, device):
        text = """
.kernel k
.params 1
    S2R R1, SR_SMID ;
    S2R R2, SR_CTAID.X ;
    MOV R3, c[0x0][0x0] ;
    ISCADD R4, R2, R3, 2 ;
    S2R R5, SR_TID.X ;
    ISETP.EQ P0, R5, 0 ;
@!P0 EXIT ;
    STG.32 [R4], R1 ;
    EXIT ;
"""
        out = device.malloc(4 * 8)
        device.launch(assemble(text).get("k"), 8, 32, [out])
        sm_ids = read_u32(device, out, 8)
        assert (sm_ids == np.arange(8) % device.num_sms).all()

    def test_warpid(self, device):
        text = """
.kernel k
.params 1
    S2R R1, SR_WARPID ;
    S2R R2, SR_TID.X ;
    MOV R3, c[0x0][0x0] ;
    ISCADD R4, R2, R3, 2 ;
    STG.32 [R4], R1 ;
    EXIT ;
"""
        out = device.malloc(4 * 64)
        device.launch(assemble(text).get("k"), 1, 64, [out])
        warps = read_u32(device, out, 64)
        assert (warps[:32] == 0).all() and (warps[32:] == 1).all()

    def test_cs2r_srz(self, device):
        assert (run_lanes(device, "    CS2R R0, SRZ ;") == 0).all()

    def test_clock_monotone(self, device):
        body = "    CS2R R1, SR_CLOCK ;\n    NOP ;\n    CS2R R2, SR_CLOCK ;\n    IADD R0, R2, -R1 ;"
        out = run_lanes(device, body)
        assert (out.astype(np.int32) > 0).all()

    def test_every_listed_register_readable(self, device):
        for name in SPECIAL_REGISTERS:
            run_lanes(device, f"    S2R R0, {name} ;")

    def test_unknown_register_traps(self, device):
        """The assembler rejects unknown names, but an instruction built
        around the check must still trap when it executes."""
        kernel = assemble(".kernel k\n    S2R R1, SR_TID.X ;\n    EXIT ;").get("k")
        bogus = object.__new__(SpecialReg)
        object.__setattr__(bogus, "name", "SR_BOGUS")
        kernel.instructions[0].sources = (bogus,)
        with pytest.raises(DeviceTrap, match="unsupported special register SR_BOGUS"):
            device.launch(kernel, 1, 32, [])

    def test_writes_to_rz_discarded(self, device):
        body = "    MOV RZ, 123 ;\n    MOV R0, RZ ;"
        assert (run_lanes(device, body) == 0).all()

    def test_writes_to_pt_discarded(self, device):
        body = (
            "    ISETP.LT PT, R50, 0 ;\n"  # would make PT false
            "    MOV R0, RZ ;\n@PT MOV R0, 1 ;"
        )
        assert (run_lanes(device, body) == 1).all()


# The classes above run block-compiled (the root ``device`` fixture);
# these copies check the same expected values on the stepping tier.
TestShflStep = on_stepping_tier(TestShfl)
TestVoteStep = on_stepping_tier(TestVote)
TestPredicateOpsStep = on_stepping_tier(TestPredicateOps)
TestSpecialRegistersStep = on_stepping_tier(TestSpecialRegisters)
