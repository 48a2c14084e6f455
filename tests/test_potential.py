"""Potential storage: float potentials as one read-only array, exact ones as tuples.

The float constructors must give the bits of the per-site Python formulas
they replace, kept here as the ``old_*`` references.
"""

import copy
import io
import json
import math
import pickle
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gylat import (LatticeSpec, LogDet, Potential, char_poly, determinant, dirichlet,
                   load_potential, neumann, oracle_spectrum, periodic, periodic_char_fn, robin,
                   twisted)
from gylat.cli import _build_potential, build_parser, main
from gylat.transfer import _sweep

NU = 100_000


def old_load(data):
    """The per-site loader the array loader replaced."""
    if isinstance(data, dict):
        h = float(data["h"])
        return tuple(h * h * v for v in [float(v) for v in data["physical"]])
    return tuple(float(v) for v in data)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_same_floats(pot: Potential, want: tuple):
    assert np.array_equal(bits(pot.as_array()), bits(want))
    assert pot.values == want
    assert all(type(v) is float for v in pot.values)


@pytest.fixture(scope="module")
def mixed_entries():
    """1e5 JSON entries: floats of every scale, ints (some beyond 2^53), bools."""
    rng = np.random.default_rng(11)
    floats = rng.uniform(-1, 1, NU) * 10.0 ** rng.integers(-300, 300, NU)
    out = floats.tolist()
    for i in range(0, NU, 7):
        out[i] = int(rng.integers(-2**62, 2**62))
    for i in range(3, NU, 11):
        out[i] = bool(i % 2)
    return out


class TestBitIdentity:
    def test_list_load(self, mixed_entries):
        text = json.dumps(mixed_entries)
        assert_same_floats(load_potential(io.StringIO(text)), old_load(mixed_entries))

    def test_all_int_and_all_bool_lists(self):
        for data in ([3, -2**60 - 1, 0, 7] * 1000, [True, False, True]):
            assert_same_floats(load_potential(list(data)), old_load(data))

    def test_numeric_strings_keep_their_values(self):
        data = ["1.5", 2, "1_000", " -3e-2 "]
        assert_same_floats(load_potential(data), old_load(data))

    def test_physical_load(self, mixed_entries):
        vbar = [v if isinstance(v, float) else 0.5 for v in mixed_entries]
        vbar = np.clip(vbar, -1e300, 1e300).tolist()
        for h in (0.1, 1 / 3, 7e-6, 3):
            data = {"physical": vbar, "h": h}
            assert_same_floats(load_potential(json.loads(json.dumps(data))), old_load(data))

    def test_from_physical(self):
        vbar = np.random.default_rng(2).uniform(0, 100, NU).tolist()
        for h in (0.1, 1 / 7, 1e-5):
            assert_same_floats(Potential.from_physical(vbar, h), tuple(h * h * v for v in vbar))
        exact = Potential.from_physical([1, Fraction(1, 3)], Fraction(1, 2))
        assert exact.values == (Fraction(1, 4), Fraction(1, 12))

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_mass_shift(self, tmp_path, capsys, bc):
        """--mass adds (h m)^2 to every site as the per-site sum did."""
        nu, mass = 2000, 3.7
        # sites of the size of (h m)^2, so that one ulp of the shift shows
        values = (np.random.default_rng(5).uniform(-1, 1, nu) * 1e-5).tolist()
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(values))
        spec = (LatticeSpec.circle(nu, L=1.0) if bc == "periodic"
                else LatticeSpec.interval(nu, L=1.0))
        mu2 = (spec.h * mass) ** 2
        argv = ["det", "--bc", bc, "--nu", str(nu), "--L", "1", "--mass", repr(mass)]
        for extra, want in (([], (mu2,) * nu),
                            (["--potential", str(path)], tuple(v + mu2 for v in values)),
                            (["--delta-site", "5", "--delta-v", "0.25"],
                             tuple((0.25 if j == 4 else 0) + mu2 for j in range(nu)))):
            shifted = _build_potential(build_parser().parse_args(argv + extra), spec)
            assert_same_floats(shifted, want)
        # the CLI's determinant is the library's on that shifted potential
        main(argv + ["--potential", str(path)])
        out = json.loads(capsys.readouterr().out)
        shifted = Potential(np.array(values) + mu2)
        unit = LatticeSpec(nu, 1.0, float(spec.n_links), spec.topology)
        ld = determinant(shifted, {"dirichlet": dirichlet(), "periodic": periodic()}[bc], unit)
        log_h2nu = 2.0 * nu * math.log(spec.h)
        physical = LogDet(ld.sign, ld.log_abs - log_h2nu)
        assert out["sign"] == ld.sign
        assert out["log10_abs"] == physical.log10_abs
        assert out["dimensionless_det"] == ld.value

    def test_periodic_char_fn(self):
        vals = np.random.default_rng(9).uniform(-1, 1, 500).tolist()
        for pot in (Potential(vals), Potential(np.array(vals)), Potential.zeros(500)):
            for tau, lam in ((1.0, 0.37), (0.3, 2.9), (0.5, -1e-3)):
                ws = [float(v) + 2 - lam for v in pot.values]
                trace = _sweep(ws, 1.0, 0.0)[0] + _sweep(ws, 0.0, 1.0)[1]
                want = trace - 2.0 * math.cos(2.0 * math.pi * tau)
                assert bits([periodic_char_fn(pot, tau, lam)]) == bits([want])

    def test_delta_and_constant(self):
        pot = Potential.delta(NU, 17, 0.3)
        assert_same_floats(pot, tuple(0.3 if j == 16 else 0.0 for j in range(NU)))
        assert_same_floats(Potential.constant(5, 0.1), (0.1,) * 5)


class TestStorage:
    def test_float_values_are_python_floats(self):
        for pot in (Potential(np.arange(5.0)), Potential((0.5, 1, True)),
                    Potential(np.arange(3, dtype=np.int32)), Potential([np.float64(0.2)] * 3),
                    Potential.delta(4, 2, np.float64(1.5)), Potential.constant(3, 0.25),
                    Potential.from_physical([1.0, 2.0], 0.5)):
            assert all(type(v) is float for v in pot.values)
            assert all(type(v) is float for v in pot)

    def test_exact_potentials_keep_their_types(self):
        entries = (0, Fraction(1, 3), -2, True)
        assert Potential(entries).values == entries
        assert [type(v) for v in Potential(entries)] == [int, Fraction, int, bool]
        assert Potential.zeros(4).values == (0, 0, 0, 0)
        assert all(type(v) is int for v in Potential.zeros(4))
        assert type(Potential.delta(4, 2, Fraction(1, 2)).values[1]) is Fraction
        assert all(type(v) is int for v in Potential.delta(4, 2, 3))
        assert all(type(v) is Fraction for v in Potential.constant(3, Fraction(1, 5)))

    @pytest.mark.parametrize("pot", [Potential((0.1, 0.2)), Potential(np.ones(3)),
                                     Potential.zeros(3), Potential((1, Fraction(1, 2))),
                                     Potential.delta(3, 1, 2.0)])
    def test_as_array_is_read_only_and_shared(self, pot):
        arr = pot.as_array()
        assert arr is pot.as_array()
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr += 1.0

    def test_copies_stay_read_only(self):
        pot = Potential(np.ones(3))
        for other in (copy.deepcopy(pot), pickle.loads(pickle.dumps(pot))):
            assert other == pot
            with pytest.raises(ValueError):
                other.as_array()[0] = 2.0

    @pytest.mark.parametrize("pot", [Potential((0.1, 0.2)), Potential.zeros(3),
                                     Potential((1, Fraction(1, 2))), Potential.delta(3, 1, 2.0)])
    def test_copies_share_their_own_read_only_array(self, pot):
        arr = pot.as_array()
        for other in (copy.deepcopy(pot), pickle.loads(pickle.dumps(pot))):
            assert other == pot and type(other.values[0]) is type(pot.values[0])
            view = other.as_array()
            assert view is other.as_array() and not np.shares_memory(view, arr)
            assert np.array_equal(view, arr) and not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 2.0

    @pytest.mark.parametrize("nu", [50, 700])
    def test_every_sequence_of_the_same_floats_is_one_potential(self, nu):
        """A tuple, a list, an ndarray and an array('d') of the same numbers compare and
        hash equal and give the same determinant bits, below and above _NUMPY_SITES."""
        vals = np.random.default_rng(nu).uniform(-1, 2, nu).tolist()
        pots = [Potential(tuple(vals)), Potential(vals), Potential(np.array(vals)),
                Potential(array("d", vals))]
        for bc in (dirichlet(), robin(0.3, 1.7), twisted(0.3)):
            spec = LatticeSpec.circle(nu, h=0.5) if bc.is_circle else LatticeSpec.interval(nu, h=0.5)
            want = determinant(pots[0], bc, spec)
            for pot in pots:
                assert pot == pots[0] and hash(pot) == hash(pots[0])
                got = determinant(pot, bc, spec)
                assert (got.sign, got.log_abs.hex()) == (want.sign, want.log_abs.hex())

    def test_caller_array_is_copied(self):
        src = np.array([0.5, 1.5])
        pot = Potential(src)
        src[0] = 9.0
        assert pot.values == (0.5, 1.5)
        assert src.flags.writeable
        src = array("d", [0.5, 1.5])
        pot = Potential(src)
        src[0] = 9.0
        assert pot.values == (0.5, 1.5)

    def test_tuple_and_ndarray_compare_and_hash_equal(self):
        vals = np.random.default_rng(3).uniform(-1, 1, 50)
        a, b = Potential(tuple(vals.tolist())), Potential(vals)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        # the same numbers in exact and float storage, as the old tuples compared
        c, d = Potential((1, 2, Fraction(1, 2))), Potential(np.array([1.0, 2.0, 0.5]))
        assert c == d and hash(c) == hash(d)
        assert Potential((0.1, 0.2)) != Potential((0.1, 0.3))
        assert Potential((0.1,)) != (0.1,)

    def test_shape_and_length(self):
        assert Potential(np.zeros(0)).nu == 0 and len(Potential(())) == 0
        assert Potential(np.zeros(7)).nu == 7
        with pytest.raises(ValueError):
            Potential(np.zeros((2, 2)))

    def test_is_free(self):
        assert Potential.zeros(5).is_free()
        assert Potential(np.array([0.0, -0.0])).is_free()
        assert not Potential.delta(5, 3, 1e-300).is_free()
        assert not Potential((0, Fraction(1, 10**400))).is_free()


class TestMalformedFiles:
    @pytest.mark.parametrize("text", [
        "[[1, 2], [3, 4]]", "[null, 1]", '[1, "x"]', "[1, {}]", "[[1], 2]",
        '{"physical": 3, "h": 0.1}', '{"physical": [1, 2], "h": null}',
        '{"physical": "12", "h": 0.1}', '{"physical": [[1], [2]], "h": 0.1}',
        "[NaN, 1]", "[1e400, 1]", "[1, -Infinity]", '[10e400, "nan"]',
        '{"physical": [1, NaN], "h": 0.1}', '{"physical": [1, 2], "h": 0}',
        '{"physical": [1, 2], "h": -0.5}', '{"physical": [1, 2], "h": Infinity}',
        '{"physical": [1e200, 2], "h": 1e200}', '{"physical": [1, 2], "h": "x"}',
        '{"physical": [1, 2], "h": [0.1]}', "[" + "1" * 400 + ", 2]",
    ])
    def test_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "pot.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_potential(str(path))
        for cmd in ("det", "spectrum"):
            code = main([cmd, "--bc", "dirichlet", "--nu", "2", "--h", "1",
                         "--potential", str(path)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("error: cannot load potential: ")

    def test_accepted_inputs(self):
        assert load_potential([1, True, "2.5", 0.25]).values == (1.0, 1.0, 2.5, 0.25)
        assert load_potential({"physical": [2, 4], "h": "0.5"}).values == (0.5, 1.0)
        assert load_potential({"physical": [2.0], "h": True}).values == (2.0,)
        assert load_potential([]).nu == 0


def _floats(max_nu: int, scale: float):
    return st.lists(st.floats(-scale, scale, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=max_nu)


class TestTupleAndArrayAgree:
    """The same floats as a tuple or as an ndarray give bit-identical results."""

    @settings(max_examples=60)
    @given(vals=_floats(300, 4.0), kind=st.sampled_from(range(5)))
    def test_determinant_and_oracle(self, vals, kind):
        bc = [dirichlet(), neumann(), robin(0.3, 1.7), periodic(), twisted(0.3)][kind]
        nu = len(vals)
        spec = LatticeSpec.circle(nu, h=0.5) if bc.is_circle else LatticeSpec.interval(nu, h=0.5)
        a, b = Potential(tuple(vals)), Potential(np.array(vals))
        da, db = determinant(a, bc, spec), determinant(b, bc, spec)
        assert (da.sign, bits([da.log_abs]).tolist()) == (db.sign, bits([db.log_abs]).tolist())
        assert bits(oracle_spectrum(a, bc, spec).lambdas).tolist() == bits(
            oracle_spectrum(b, bc, spec).lambdas).tolist()

    @settings(max_examples=40)
    @given(vals=_floats(60, 2.0), kind=st.sampled_from(range(3)))
    def test_float_char_poly(self, vals, kind):
        bc = [dirichlet(), robin(-0.4, 0.9), twisted(0.7)][kind]
        a, b = Potential(tuple(vals)), Potential(np.array(vals))
        assert bits(char_poly(a, bc).coeffs).tolist() == bits(char_poly(b, bc).coeffs).tolist()
