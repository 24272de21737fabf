"""Link-parameter validation and the 14-octet configuration image."""

import dataclasses

import numpy as np
import pytest

from jesd204b_sim.config import (FIELD_SUM, OCTET_SUM, ConfigError,
                                 FieldOverflow, IlasConfig, LinkConfig,
                                 ParseError, check_config, compute_fchk,
                                 validate_config)


def names(violations):
    return {v.name for v in violations}


class TestValidateConfig:
    def test_two_lane_hardware_config_is_valid(self):
        cfg = LinkConfig(L=2, F=4, K=32, scrambling=1)
        assert validate_config(cfg) is cfg

    def test_f_not_multiple_of_4(self):
        cfg = LinkConfig(L=2, F=3, K=32)
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert "F-multiple-of-4" in names(exc.value.violations)
        # 3 is also below the lower bound of the F range
        assert "F-range" in names(exc.value.violations)

    def test_fk_lower_bound(self):
        # F*K = 16 cannot carry the 17-octet alignment payload
        # (/R/ + /Q/ + 14 config octets + /A/) in one multiframe.
        cfg = LinkConfig(L=2, F=4, K=4)
        assert "FK-range" in names(check_config(cfg))
        assert names(check_config(LinkConfig(L=2, F=4, K=5))) == set()

    def test_every_violation_reported(self):
        cfg = LinkConfig(L=0, F=3, K=40, links=9)
        got = names(check_config(cfg))
        assert {"L-range", "F-range", "F-multiple-of-4", "K-range",
                "links-range"} <= got

    def test_buffer_and_release_rules(self):
        assert "buffer-depth-min" in names(
            check_config(LinkConfig(L=2, F=4, K=32, buffer_depth=32)))
        assert "release-offset-range" in names(
            check_config(LinkConfig(L=2, F=4, K=32, release_offset=128)))

    def test_validation_is_pure_and_idempotent(self):
        cfg = LinkConfig(L=2, F=4, K=32)
        before = dataclasses.asdict(cfg)
        validate_config(validate_config(cfg))
        assert dataclasses.asdict(cfg) == before

    def test_defaults_resolved_from_fk(self):
        cfg = LinkConfig(L=1, F=8, K=16)
        assert cfg.buffer_depth == 2 * 128
        assert 0 <= cfg.release_offset < 128

    @pytest.mark.parametrize("value,ok", [(True, True), (False, True), (1, True),
                                          (0, True), ("0", False), (2, False),
                                          (None, False), (1.0, False)])
    def test_scrambling_only_bool_or_0_1(self, value, ok):
        cfg = LinkConfig(L=2, F=4, K=32, scrambling=value)
        assert ("scrambling-type" not in names(check_config(cfg))) == ok
        assert cfg.scrambling is bool(value) if ok else cfg.scrambling is value

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParseError, match="bogus"):
            LinkConfig.from_dict({"L": 2, "F": 4, "K": 32, "bogus": 1})

    def test_from_dict_requires_lfk(self):
        with pytest.raises(ParseError, match="K"):
            LinkConfig.from_dict({"L": 2, "F": 4})


class TestChecksum:
    def test_zeros(self):
        assert compute_fchk([0] * 13) == 0

    def test_simple_sum(self):
        assert compute_fchk([1, 2, 3] + [0] * 10) == 6

    def test_modular_wrap(self):
        assert compute_fchk([255, 45] + [0] * 11) == (255 + 45) % 256 == 44

    def test_full_image_ignores_checksum_slot(self):
        image = [1] * 13 + [0xEE]
        assert compute_fchk(image) == 13


# Independent field-packing oracle: octet/shift/width written out by hand
# from the wire layout, used only to cross-check the library's packer.
def _pack_by_hand(did=0, bid=0, lid=0, scr=0, l=0, f=0, k=0, m=0, cs=0, n=0,
                  subclassv=0, nprime=0, jesdv=0, s=0, hd=0, cf=0,
                  res1=0, res2=0):
    octets = [0] * 14
    octets[0] = did
    octets[1] = bid & 0xF
    octets[2] = lid & 0x1F
    octets[3] = (scr << 7) | (l & 0x1F)
    octets[4] = f & 0xFF
    octets[5] = k & 0x1F
    octets[6] = m & 0xFF
    octets[7] = ((cs & 0x3) << 6) | (n & 0x1F)
    octets[8] = ((subclassv & 0x7) << 5) | (nprime & 0x1F)
    octets[9] = ((jesdv & 0x7) << 5) | (s & 0x1F)
    octets[10] = ((hd & 1) << 7) | (cf & 0x1F)
    octets[11] = res1
    octets[12] = res2
    octets[13] = sum(octets[:13]) % 256
    return bytes(octets)


class TestIlasConfig:
    def test_all_zero_fields_pack_to_zero_image(self):
        ic = IlasConfig(scr=0, l=0, f=0, k=0, n=0, nprime=0, subclassv=0, jesdv=0)
        assert ic.pack() == bytes(14)

    def test_single_field_sets_single_octet_and_checksum(self):
        ic = IlasConfig(did=1, scr=0, l=0, f=0, k=0, n=0, nprime=0,
                        subclassv=0, jesdv=0)
        image = ic.pack()
        assert image[0] == 1 and image[13] == 1
        assert all(b == 0 for b in image[1:13])

    def test_hardware_image_matches_hand_packing(self):
        cfg = LinkConfig(L=2, F=4, K=32, scrambling=1)
        ic = IlasConfig.from_link_config(cfg, channels=16, sample_bits=16)
        expected = _pack_by_hand(scr=1, l=1, f=3, k=31, m=15, n=15,
                                 nprime=15, subclassv=1, jesdv=1, s=0)
        assert ic.pack() == expected

    def test_roundtrip_random_fields(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            ic = IlasConfig(
                did=int(rng.integers(256)), bid=int(rng.integers(16)),
                lid=int(rng.integers(32)), scr=int(rng.integers(2)),
                l=int(rng.integers(32)), f=int(rng.integers(256)),
                k=int(rng.integers(32)), m=int(rng.integers(256)),
                cs=int(rng.integers(4)), n=int(rng.integers(32)),
                subclassv=int(rng.integers(8)), nprime=int(rng.integers(32)),
                jesdv=int(rng.integers(8)), s=int(rng.integers(32)),
                hd=int(rng.integers(2)), cf=int(rng.integers(32)),
                res1=int(rng.integers(256)), res2=int(rng.integers(256)))
            for rule in (OCTET_SUM, FIELD_SUM):
                back, ok = IlasConfig.unpack(ic.pack(rule), rule)
                assert back == ic and ok

    def test_flipped_checksum_octet_detected(self):
        image = bytearray(IlasConfig(did=7).pack())
        image[13] ^= 0x5A
        _, ok = IlasConfig.unpack(bytes(image))
        assert not ok

    def test_single_octet_corruption_always_detected(self):
        # Exhaustive: any nonzero delta to any summed octet flips the
        # checksum verdict under the octet-sum rule.
        base = IlasConfig.from_link_config(LinkConfig(L=2, F=4, K=32), channels=4)
        image = base.pack()
        for pos in range(14):
            for delta in range(1, 256):
                corrupted = bytearray(image)
                corrupted[pos] = (corrupted[pos] + delta) % 256
                _, ok = IlasConfig.unpack(bytes(corrupted))
                assert not ok, (pos, delta)

    def test_field_overflow(self):
        with pytest.raises(FieldOverflow, match="lid"):
            IlasConfig(lid=32).pack()

    def test_matches_link_minimal_policy(self):
        cfg = LinkConfig(L=2, F=4, K=32, scrambling=1)
        ic = IlasConfig.from_link_config(cfg)
        assert ic.matches_link(cfg)
        assert not dataclasses.replace(ic, k=30).matches_link(cfg)
        assert not dataclasses.replace(ic, scr=0).matches_link(cfg)
