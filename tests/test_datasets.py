from __future__ import annotations

import math

import pytest

from spintangle import constants
from spintangle.datasets import (
    BUNDLED,
    RegisterFormatError,
    load_register,
    parse_register,
)

GOOD = """\
# larmor_kHz=432
# s0=0
# s1=-1
label,A_kHz,B_kHz
C1,-20.72,12
C2,-23.22,13
"""


class TestParseRegister:
    def test_good_file(self):
        reg = parse_register(GOOD)
        assert reg.labels == ["C1", "C2"]
        assert reg.larmor_khz == 432.0
        electron = reg.electron()
        assert (electron.s0, electron.s1) == (0.0, -1.0)
        spin = reg.by_label("C1")
        assert spin.A == pytest.approx(-20.72 * constants.KHZ)
        assert spin.B == pytest.approx(12.0 * constants.KHZ)
        assert spin.omega_L == pytest.approx(432.0 * constants.KHZ)

    def test_caller_overrides_metadata(self):
        reg = parse_register(GOOD, larmor_khz=314.0, s0=0.5, s1=-0.5)
        assert reg.larmor_khz == 314.0
        assert reg.electron().s0 == 0.5

    def test_empty_register_is_valid(self):
        reg = parse_register("label,A_kHz,B_kHz\n", larmor_khz=432.0)
        assert reg.spins == []

    def test_bad_header(self):
        with pytest.raises(RegisterFormatError, match="expected header"):
            parse_register("name,A,B\nC1,1,2\n", larmor_khz=432.0)

    def test_duplicate_label_reports_line(self):
        text = "label,A_kHz,B_kHz\nC1,1,2\nC1,3,4\n"
        with pytest.raises(RegisterFormatError, match=r":3: duplicate label"):
            parse_register(text, larmor_khz=432.0)

    def test_unparseable_decimals_report_line(self):
        text = "label,A_kHz,B_kHz\nC1,one,2\n"
        with pytest.raises(RegisterFormatError, match=r":2: unparseable"):
            parse_register(text, larmor_khz=432.0)

    def test_field_count_reports_line(self):
        text = "label,A_kHz,B_kHz\nC1,1\n"
        with pytest.raises(RegisterFormatError, match=r":2: expected 3 fields"):
            parse_register(text, larmor_khz=432.0)

    def test_missing_larmor(self):
        with pytest.raises(RegisterFormatError, match="Larmor"):
            parse_register("label,A_kHz,B_kHz\nC1,1,2\n")

    def test_missing_header(self):
        with pytest.raises(RegisterFormatError, match="missing header"):
            parse_register("# larmor_kHz=432\n")

    def test_bad_metadata_value(self):
        with pytest.raises(RegisterFormatError, match="bad metadata"):
            parse_register("# larmor_kHz=abc\nlabel,A_kHz,B_kHz\n")

    def test_negative_coupling_reports_line(self):
        text = "label,A_kHz,B_kHz\nC1,1,-2\n"
        with pytest.raises(RegisterFormatError, match=":2:"):
            parse_register(text, larmor_khz=432.0)

    def test_blank_lines_skipped(self):
        text = "\n# larmor_kHz=432\n\nlabel,A_kHz,B_kHz\n  \nC1,1,2\n\nC2,3,4\n"
        reg = parse_register(text)
        assert reg.labels == ["C1", "C2"]
        assert reg.larmor_khz == 432.0

    @pytest.mark.parametrize("text, larmor, message", [
        ("# larmor_kHz=-5\nlabel,A_kHz,B_kHz\nC1,1,2\n", None,
         "reg.csv:1: larmor_kHz metadata line: larmor_kHz must be > 0, got -5.0"),
        # rejected even when no spin row would have caught it
        ("# s0=0\n# larmor_kHz=0\nlabel,A_kHz,B_kHz\n", None,
         "reg.csv:2: larmor_kHz metadata line: larmor_kHz must be > 0, got 0.0"),
        ("# larmor_kHz=432\nlabel,A_kHz,B_kHz\nC1,1,2\n", math.nan,
         "reg.csv: larmor_kHz from the caller: larmor_kHz must be finite, got nan"),
        ("label,A_kHz,B_kHz\n", -math.inf,
         "reg.csv: larmor_kHz from the caller: larmor_kHz must be finite, got -inf"),
    ], ids=["metadata-negative", "metadata-zero-no-rows", "caller-nan",
            "caller-inf-no-rows"])
    def test_bad_larmor_names_its_origin(self, text, larmor, message):
        with pytest.raises(RegisterFormatError) as info:
            parse_register(text, source="reg.csv", larmor_khz=larmor)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, larmor, origin", [
        ("# larmor_kHz=432\nlabel,A_kHz,B_kHz\nC1,1,2\n", 1e308,
         "reg.csv: larmor_kHz from the caller: "),
        ("# s0=0\n# larmor_kHz=1e308\nlabel,A_kHz,B_kHz\nC1,1,2\n", None,
         "reg.csv:2: larmor_kHz metadata line: "),
    ], ids=["caller", "metadata"])
    def test_larmor_overflowing_rad_per_s_names_its_origin(self, text, larmor,
                                                           origin):
        # finite in kHz, infinite once scaled to rad/s
        with pytest.raises(RegisterFormatError) as info:
            parse_register(text, source="reg.csv", larmor_khz=larmor)
        assert str(info.value) == (origin + "larmor_kHz must be finite, got 1e+308 "
                                   "kHz, which overflows in rad/s")

    def test_coupling_overflowing_rad_per_s_names_its_row(self):
        text = "# larmor_kHz=432\nlabel,A_kHz,B_kHz\nC1,1,2\nC2,1e308,2\n"
        with pytest.raises(RegisterFormatError) as info:
            parse_register(text, source="reg.csv")
        assert str(info.value) == "reg.csv:4: A must be finite, got inf"

    def test_electron_unresolvable(self):
        reg = parse_register("label,A_kHz,B_kHz\nC1,1,2\n", larmor_khz=432.0)
        with pytest.raises(RegisterFormatError, match="s0/s1"):
            reg.electron()

    def test_non_finite_projection_in_file_named(self):
        reg = parse_register("# s0=nan\n# s1=-1\nlabel,A_kHz,B_kHz\n",
                             larmor_khz=432.0)
        with pytest.raises(ValueError, match="s0 must be finite, got nan"):
            reg.electron()

    @pytest.mark.parametrize("text, s0, s1, message", [
        ("# larmor_kHz=432\n# s0=nan\n# s1=-1\nlabel,A_kHz,B_kHz\n", None, None,
         "reg.csv:2: s0 metadata line: s0 must be finite, got nan"),
        ("# larmor_kHz=432\n# s0=0\n# s1=-1\nlabel,A_kHz,B_kHz\n", None, math.inf,
         "reg.csv: s1 from the caller: s1 must be finite, got inf"),
        ("# larmor_kHz=432\n# s0=0\n# s1=-1\nlabel,A_kHz,B_kHz\n", -1.0, None,
         "reg.csv: s0 from the caller; reg.csv:3: s1 metadata line: "
         "s0 and s1 must differ, got -1.0 for both"),
        ("# s1=0.5\n# larmor_kHz=432\n# s0=0.5\nlabel,A_kHz,B_kHz\n", None, None,
         "reg.csv:3: s0 metadata line; reg.csv:1: s1 metadata line: "
         "s0 and s1 must differ, got 0.5 for both"),
        ("# larmor_kHz=432\n# s0=0\n# s1=-1e308\nlabel,A_kHz,B_kHz\nC1,10,20\n",
         None, None,
         "reg.csv:3: s1 metadata line: s1=-1e+308 overflows the branch frequency "
         "of C1"),
        ("# larmor_kHz=432\n# s0=0\n# s1=-1\nlabel,A_kHz,B_kHz\nC1,10,20\n",
         1e308, None,
         "reg.csv: s0 from the caller: s0=1e+308 overflows the branch frequency "
         "of C1"),
        ("# larmor_kHz=432\n# s0=0\nlabel,A_kHz,B_kHz\n", None, "-1",
         "reg.csv: s1 from the caller: s1 must be a real number, got '-1'"),
    ], ids=["metadata-nan", "caller-inf", "caller-equal", "metadata-equal",
            "metadata-overflow", "caller-overflow", "caller-string"])
    def test_bad_projection_names_its_origin(self, text, s0, s1, message):
        reg = parse_register(text, source="reg.csv", s0=s0, s1=s1)
        with pytest.raises(RegisterFormatError) as info:
            reg.electron()
        assert str(info.value) == message

    def test_unknown_label(self):
        reg = parse_register(GOOD)
        with pytest.raises(KeyError):
            reg.by_label("C99")


class TestBundled:
    def test_all_bundled_load(self):
        for name in BUNDLED:
            reg = load_register(name)
            assert reg.spins
            reg.electron()

    def test_nv27_spot_values(self):
        reg = load_register("nv27")
        assert len(reg.spins) == 27
        assert reg.larmor_khz == 432.0
        c5 = reg.by_label("C5")
        assert c5.A == pytest.approx(-11.346 * constants.KHZ)
        assert c5.B == pytest.approx(59.21 * constants.KHZ)
        c12 = reg.by_label("C12")
        assert c12.A == pytest.approx(20.569 * constants.KHZ)
        assert c12.B == pytest.approx(41.51 * constants.KHZ)
        electron = reg.electron()
        assert (electron.s0, electron.s1) == (0.0, -1.0)

    def test_random_tables_sizes(self):
        for name in BUNDLED[1:]:
            reg = load_register(name)
            assert 8 <= len(reg.spins) <= 11
            assert reg.larmor_khz == 314.0

    def test_path_load(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text(GOOD)
        reg = load_register(str(p))
        assert reg.labels == ["C1", "C2"]
        assert reg.source == str(p)

    def test_unknown_name(self):
        with pytest.raises(RegisterFormatError, match="neither a file"):
            load_register("no-such-register")


class TestConstantsOverride:
    def test_env_var_overrides_table(self, tmp_path, monkeypatch):
        from spintangle import constants

        base_hash = constants.constants_hash()
        path = tmp_path / "constants.json"
        path.write_text('{"hbar": 1.0e-34}')
        monkeypatch.setenv(constants.CONSTANTS_ENV_VAR, str(path))
        try:
            constants.apply_env_overrides()
            assert constants.HBAR == 1.0e-34
            assert constants.constants_hash() != base_hash
        finally:
            monkeypatch.delenv(constants.CONSTANTS_ENV_VAR)
            constants.apply_env_overrides()
        assert constants.HBAR == 1.0545718e-34
        assert constants.constants_hash() == base_hash

    def test_unknown_key_rejected(self, tmp_path, monkeypatch):
        from spintangle import constants

        base_hash = constants.constants_hash()
        path = tmp_path / "constants.json"
        path.write_text('{"hbar": 1.0e-34, "planck": 1}')
        monkeypatch.setenv(constants.CONSTANTS_ENV_VAR, str(path))
        with pytest.raises(ValueError, match="'planck': 1; the keys are"):
            constants.apply_env_overrides()
        # a rejected file changes no constant
        assert constants.constants_hash() == base_hash