"""Tests for the CHEMKIN-style mechanism parser."""

import numpy as np
import pytest

from repro.chemistry.parser import MechanismParseError, parse_mechanism
from repro.util.constants import CAL_TO_J

SIMPLE = """
! a toy hydrogen mechanism
ELEMENTS
H O N
END
SPECIES
H2 O2 H2O H O OH HO2 H2O2 N2
END
REACTIONS CAL/MOLE
H+O2<=>O+OH            3.547E+15  -0.406  16599.
O+H2<=>H+OH            0.508E+05   2.67    6290.
H2+M<=>H+H+M           4.577E+19  -1.40  104380.
    H2/2.5/ H2O/12.0/
H+O2(+M)<=>HO2(+M)     1.475E+12   0.60       0.
    H2/2.0/ H2O/11.0/ O2/0.78/
    LOW /6.366E+20 -1.72 524.8/
    TROE /0.8 1.0E-30 1.0E+30/
HO2+HO2<=>H2O2+O2      4.200E+14   0.00   11982.
    DUPLICATE
HO2+HO2<=>H2O2+O2      1.300E+11   0.00   -1629.3
    DUPLICATE
H2O2+H=>H2O+OH         0.241E+14   0.00    3970.
END
"""


class TestParser:
    def test_species_list(self):
        mech = parse_mechanism(SIMPLE)
        assert mech.species_names == ["H2", "O2", "H2O", "H", "O", "OH", "HO2", "H2O2", "N2"]

    def test_reaction_count(self):
        mech = parse_mechanism(SIMPLE)
        assert mech.n_reactions == 7

    def test_arrhenius_units_converted(self):
        mech = parse_mechanism(SIMPLE)
        r = mech.reactions[0]  # bimolecular
        assert r.rate.A == pytest.approx(3.547e15 * 1e-6)
        assert r.rate.n == pytest.approx(-0.406)
        assert r.rate.Ea == pytest.approx(16599.0 * CAL_TO_J)

    def test_third_body_efficiencies(self):
        mech = parse_mechanism(SIMPLE)
        r = mech.reactions[2]
        eff = r.third_body.as_dict()
        assert eff == {"H2": 2.5, "H2O": 12.0}
        # dissociation with M: forward order 2 -> A converted by 1e-6
        assert r.rate.A == pytest.approx(4.577e19 * 1e-6)

    def test_falloff_parsed(self):
        mech = parse_mechanism(SIMPLE)
        r = mech.reactions[3]
        assert r.falloff is not None
        assert r.falloff.low.A == pytest.approx(6.366e20 * 1e-12)  # order 2 + M
        assert r.falloff.troe[0] == pytest.approx(0.8)

    def test_duplicates_marked(self):
        mech = parse_mechanism(SIMPLE)
        assert mech.reactions[4].duplicate and mech.reactions[5].duplicate

    def test_irreversible_arrow(self):
        mech = parse_mechanism(SIMPLE)
        assert mech.reactions[6].reversible is False

    def test_comments_stripped(self):
        mech = parse_mechanism("SPECIES\nO2 N2 ! trailing\nEND")
        assert mech.species_names == ["O2", "N2"]

    def test_matches_builtin_mechanism_rates(self, h2_mech):
        """The parsed toy subset reproduces the built-in rate constants."""
        mech = parse_mechanism(SIMPLE)
        T = np.array([1000.0, 1500.0])
        built = h2_mech.reactions[0].rate(T)
        parsed = mech.reactions[0].rate(T)
        np.testing.assert_allclose(parsed, built, rtol=1e-12)

    def test_parser_ford_keyword(self):
        text = (
            "SPECIES\nCH4 O2 CO2 H2O N2\nEND\n"
            "REACTIONS\n"
            "CH4+2O2=>CO2+2H2O  1.0E10 0.0 30000.\n"
            "    FORD /CH4 0.5/\n"
            "    FORD /O2 1.25/\n"
            "END\n"
        )
        mech = parse_mechanism(text)
        rxn = mech.reactions[0]
        assert rxn.orders == (("CH4", 0.5), ("O2", 1.25))
        # unit conversion uses the FORD total order (1.75)
        assert rxn.rate.A == pytest.approx(1.0e10 * (1e-6) ** 0.75)


class TestParserErrors:
    def test_missing_species_section(self):
        with pytest.raises(MechanismParseError, match="no SPECIES"):
            parse_mechanism("ELEMENTS\nH\nEND")

    def test_undeclared_species(self):
        text = "SPECIES\nO2 N2\nEND\nREACTIONS\nO2+CO=>CO2 1.0 0.0 0.0\nEND"
        with pytest.raises(MechanismParseError, match="undeclared species"):
            parse_mechanism(text)

    def test_no_arrow(self):
        text = "SPECIES\nO2 N2\nEND\nREACTIONS\nO2 N2 1.0 0.0 0.0\nEND"
        with pytest.raises(MechanismParseError):
            parse_mechanism(text)

    def test_duplicate_before_reaction(self):
        text = "SPECIES\nO2\nEND\nREACTIONS\nDUPLICATE\nEND"
        with pytest.raises(MechanismParseError, match="DUPLICATE before"):
            parse_mechanism(text)

    def test_falloff_missing_low(self):
        text = "SPECIES\nH O2 HO2\nEND\nREACTIONS\nH+O2(+M)<=>HO2(+M) 1.0 0.0 0.0\nEND"
        with pytest.raises(MechanismParseError, match="LOW"):
            parse_mechanism(text)

    def test_unbalanced_third_body(self):
        text = "SPECIES\nH2 H\nEND\nREACTIONS\nH2+M<=>H+H 1.0 0.0 0.0\nEND"
        with pytest.raises(MechanismParseError, match="unbalanced"):
            parse_mechanism(text)
