"""Exact bytes of every output writer, the float64 round trip of the text formats,
and the reader's rejection of every other layout."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noisyrk import linalg
from noisyrk.bounds import BoundCurve, BoundKind
from noisyrk.cli import write_band_csv, write_bound_csv, write_table2_csv, write_trajectory_csv
from noisyrk.errors import KernelBuildError
from noisyrk.experiments import Table2Row
from noisyrk.kaczmarz import Trajectory
from noisyrk.linalg import _read_table, _write_table, read_matrix, read_vector, write_matrix, write_vector

TINY, HUGE = 5e-324, 1.7976931348623157e308

TRAJ = Trajectory(
    recorded_iterations=np.array([0, 1, 2000, 2**53], dtype=np.int64),
    per_trial_squared_error=np.array([[-0.0, TINY, 0.1, HUGE], [1.0, 0.25, 0.1, 4.0]]),
    mean_squared_error=np.array([0.5, 0.125, 0.1, HUGE]),
    std_squared_error=np.array([0.5, TINY, 0.0, 1.0]),
)


class TestGoldenBytes:
    """Literal file texts; any change to a writer's output shows up here."""

    def test_matrix(self, tmp_path):
        write_matrix(tmp_path / "a.mat", [[-0.0, TINY, HUGE], [0.1, 1.0, -2.5]])
        assert (tmp_path / "a.mat").read_text() == (
            "2 3\n"
            "-0 4.9406564584124654e-324 1.7976931348623157e+308\n"
            "0.10000000000000001 1 -2.5\n"
        )

    def test_vector(self, tmp_path):
        write_vector(tmp_path / "v.vec", [-0.0, TINY, HUGE, 0.1])
        assert (tmp_path / "v.vec").read_text() == (
            "4\n-0\n4.9406564584124654e-324\n1.7976931348623157e+308\n0.10000000000000001\n"
        )

    def test_trajectory_csv(self, tmp_path):
        write_trajectory_csv(tmp_path / "traj.csv", TRAJ)
        assert (tmp_path / "traj.csv").read_text() == (
            "iteration,mean_sq_err,std_sq_err,trial_0,trial_1\n"
            "0,0.5,0.5,-0,1\n"
            "1,0.125,4.9406564584124654e-324,4.9406564584124654e-324,0.25\n"
            "2000,0.10000000000000001,0,0.10000000000000001,0.10000000000000001\n"
            "9007199254740992,1.7976931348623157e+308,1,1.7976931348623157e+308,4\n"
        )

    def test_band_csv(self, tmp_path):
        write_band_csv(tmp_path / "band.csv", TRAJ)
        assert (tmp_path / "band.csv").read_text() == (
            "iteration,mean_sq,lo_sq,hi_sq,mean_abs,lo_abs,hi_abs\n"
            "0,0.5,0.25,0.75,0.5,0.25,0.75\n"
            "1,0.125,0.125,0.125,0.25,0.125,0.375\n"
            "2000,0.10000000000000001,0.10000000000000001,0.10000000000000001,"
            "0.31622776601683794,0.31622776601683794,0.31622776601683794\n"
            "9007199254740992,1.7976931348623157e+308,1.7976931348623157e+308,"
            "1.7976931348623157e+308,6.7039039649712978e+153,3.3519519824856489e+153,"
            "1.0055855947456946e+154\n"
        )

    def test_bound_csv_and_sidecar(self, tmp_path):
        curve = BoundCurve(
            kind=BoundKind.ADDITIVE, rate=0.1, horizon=TINY, initial_error=HUGE, squared=True,
            iterations=np.array([0, 1, 2000]), values=np.array([-0.0, TINY, 0.1]),
            scalars={"q": 0.1, "r": 2.0},
        )
        write_bound_csv(tmp_path / "bound.csv", curve)
        assert (tmp_path / "bound.csv").read_text() == (
            "iteration,bound_value\n0,-0\n1,4.9406564584124654e-324\n2000,0.10000000000000001\n"
        )
        assert (tmp_path / "bound.meta.json").read_text() == (
            "{\n"
            '  "horizon": 5e-324,\n'
            '  "initial_error": 1.7976931348623157e+308,\n'
            '  "kind": "additive",\n'
            '  "rate_per_iteration": 0.1,\n'
            '  "scalars": {\n'
            '    "q": 0.1,\n'
            '    "r": 2.0\n'
            "  },\n"
            '  "squared": true\n'
            "}\n"
        )

    def test_table2_csv(self, tmp_path):
        rows = [Table2Row(-0.0, TINY, HUGE, 0.1, 2000.0, 1e-300, 1),
                Table2Row(0.1, 0.2, 3.0, 4.5, 1e10, 0.3, 7)]
        write_table2_csv(tmp_path / "table2.csv", rows)
        assert (tmp_path / "table2.csv").read_text() == (
            "sigma_a,sigma_b,kappa,r_tilde,theo_horizon,emp_horizon\n"
            "-0,4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001,2000,1e-300\n"
            "0.10000000000000001,0.20000000000000001,3,4.5,10000000000,0.29999999999999999\n"
        )


# every finite float64: subnormals, signed zeros, the largest magnitudes
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                        elements=FINITE))
    def test_matrix_bit_exact(self, tmp_path_factory, a):
        path = tmp_path_factory.mktemp("m") / "a.mat"
        write_matrix(path, a)
        back = read_matrix(path)
        assert back.shape == a.shape
        assert back.tobytes() == a.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(v=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=1, max_side=12),
                        elements=FINITE))
    def test_vector_bit_exact(self, tmp_path_factory, v):
        path = tmp_path_factory.mktemp("v") / "v.vec"
        write_vector(path, v)
        back = read_vector(path)
        assert back.shape == v.shape
        assert back.tobytes() == v.tobytes()


# what savetxt is asked to print: any finite float64, with the edge values and
# exact integers drawn often; 1000000000000000.25 is a tie at the 17th digit
EDGES = st.sampled_from([0.0, -0.0, TINY, -TINY, HUGE, -HUGE, 2.0**53, -(2.0**53), 0.1, 1000000000000000.25])
VALUES = st.one_of(FINITE, EDGES, st.integers(-(2**53), 2**53).map(float))


class TestSavetxtOracle:
    """``_write_table`` writes exactly the bytes of numpy's savetxt."""

    @staticmethod
    def savetxt_bytes(tmp, header, rows, delimiter):
        np.savetxt(tmp / "oracle", rows, fmt="%.17g", delimiter=delimiter, header=header, comments="")
        return (tmp / "oracle").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(rows=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=8), elements=VALUES),
           delimiter=st.sampled_from([",", " "]))
    def test_bytes_equal_savetxt(self, tmp_path_factory, rows, delimiter):
        tmp = tmp_path_factory.mktemp("t")
        _write_table(tmp / "table", "h e a d", rows, delimiter)
        assert (tmp / "table").read_bytes() == self.savetxt_bytes(tmp, "h e a d", rows, delimiter)

    @pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf, -np.inf])
    def test_non_finite_bytes_equal_savetxt(self, tmp_path, value):
        rows = np.array([[value, 1.0]])
        _write_table(tmp_path / "table", "a,b", rows)
        assert (tmp_path / "table").read_bytes() == self.savetxt_bytes(tmp_path, "a,b", rows, ",")

    def test_missing_directory_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "absent" / "a.mat"))):
            write_matrix(tmp_path / "absent" / "a.mat", np.eye(2))


def sweep_values() -> np.ndarray:
    """Every kind of float64 the writer's fast path must get right or hand to snprintf."""
    rng = np.random.default_rng(14)
    # exact ties at the 17th digit: n * 2**-k for odd n < 2**53 with n * 5**k of 18
    # digits, ending in 5 (k = 1 has none: n / 2 has at most 17 digits)
    ties = []
    for k in range(1, 13):
        lo, hi = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        if lo < hi:
            ties.append(np.ldexp((rng.integers(lo, hi, 10_000) | 1).astype(float), -k))
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    neighbours = np.concatenate([tens, twos, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                                 np.nextafter(twos, 0), np.nextafter(twos, np.inf)])
    subnormals = np.ldexp(rng.integers(1, 2**52, 20_000).astype(float), -1074)
    integers = rng.integers(0, 2**63, 20_000, dtype=np.uint64).astype(float)
    bits = rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(np.float64)
    gaussians = rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30, 20_000)
    edges = np.array([0.0, -0.0, HUGE, -HUGE, TINY, np.ldexp(1.0, -1022), 2.0**53, 2.0**63])
    values = np.concatenate([*ties, neighbours, subnormals, integers, bits[np.isfinite(bits)], gaussians, edges])
    values[1::2] *= -1.0
    return values


class TestFastPathSweep:
    """The writer's and reader's fast paths against Python's correctly rounded conversions."""

    def test_writer_matches_python_and_reads_back(self, tmp_path):
        values = sweep_values()
        assert values.size >= 200_000
        rows = values[: values.size // 8 * 8].reshape(-1, 8)
        path = tmp_path / "sweep.mat"
        _write_table(path, f"{rows.shape[0]} 8", rows, " ")
        lines = path.read_text().split("\n")
        assert lines[-1] == "" and len(lines) == rows.shape[0] + 2
        wrong = [(x, got) for x, got in zip(rows.ravel().tolist(), " ".join(lines[1:-1]).split(" "))
                 if got != "%.17g" % x]
        assert wrong == []
        assert read_matrix(path).tobytes() == rows.tobytes()

    @staticmethod
    def assert_reads_as_float(tmp_path, tokens):
        path = tmp_path / "tokens.vec"
        path.write_text(f"{len(tokens)}\n" + "\n".join(tokens) + "\n")
        expected = np.array([float(t) for t in tokens])
        assert _read_table(path, "dim").tobytes() == expected.tobytes()

    def test_reader_edge_tokens_match_float(self, tmp_path):
        # what the strict grammar leaves to strtod, and values at its edges: ties,
        # subnormals, the smallest normal, the largest finite value and overflow
        self.assert_reads_as_float(tmp_path, [
            "+1", ".5", "1.", "1.e5", "1E5", "0012", "-0", "0e999", "-0.0000", "-0.1e+1",
            "12345678901234567890", "99999999999999999999", "1234567890123456789012345",
            "0.00000000000000000001234567890123456789", "1234567890123456789.1e-5",
            "4.9e-324", "2.4703282292062328e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
            "1e-400", "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
            "2e308", "1e400", "9007199254740993", "9007199254740995", "1000000000000000.25",
        ])

    def test_reader_random_tokens_match_float(self, tmp_path):
        # 1-20 digits with the point anywhere, exponents from -350 to 350
        rng = random.Random(14)
        tokens = []
        for _ in range(20_000):
            digits = "".join(rng.choices("0123456789", k=rng.randint(1, 20)))
            point = rng.randint(0, len(digits))
            tokens.append(f"{rng.choice(['', '-'])}{digits[:point] or '0'}.{digits[point:]}e{rng.randint(-350, 350)}")
        self.assert_reads_as_float(tmp_path, tokens)


class TestPowersOfTen:
    """The table of powers of ten that linalg computes and hands to the kernel's conversions."""

    def test_every_entry_is_the_truncated_power(self):
        # derived apart from linalg: 10^j = top * 2^e + rest with 2^127 <= top < 2^128 and 0 <= rest < 2^e
        halves, exps = linalg._powers_of_ten()
        assert (linalg._TENS.start, linalg._TENS.stop - 1) == (-343, 340)
        assert halves.shape == (2 * len(linalg._TENS),) and exps.shape == (len(linalg._TENS),)
        for k, j in enumerate(linalg._TENS):
            power, e = Fraction(10) ** j, math.floor(j * math.log2(10)) - 127
            while power / Fraction(2) ** e >= 2**128:
                e += 1
            while power / Fraction(2) ** e < 2**127:
                e -= 1
            top = math.floor(power / Fraction(2) ** e)
            assert (int(halves[2 * k]) << 64 | int(halves[2 * k + 1]), int(exps[k])) == (top, e), j

    @pytest.mark.parametrize("js", [range(-342, 341), range(-343, 340)], ids=["short-below", "short-above"])
    def test_the_library_refuses_another_range(self, monkeypatch, js):
        monkeypatch.setattr(linalg, "_TENS", js)
        linalg._kernel.cache_clear()
        try:
            with pytest.raises(KernelBuildError, match=r"refused the powers of ten 10\^j for j in \["):
                linalg._kernel()
        finally:
            linalg._kernel.cache_clear()


class TestReaderRejects:
    """Anything but the writer's layout, trailing whitespace and CRLF is a named error."""

    @pytest.mark.parametrize(
        "text, line, what",
        [
            ("2 2\n1 2\n3\n", 3, "fewer values"),
            ("2 2\n1 2\n3 \n", 3, "fewer values"),
            ("2 2\n1 2\n3", 3, "fewer values"),
            ("2 2\n1 2 5\n3 4\n", 2, "more values"),
            ("2 2\n1 2\n", 3, "missing row"),
            ("2 2\n1 2\n3 4\n5 6\n", 4, "after the last"),
            ("2 2\n1 2\n3 4\n\n# note\n", 5, "after the last"),
            ("2 2\n1 2\n\n3 4\n", 3, "fewer values"),
            ("2 2\n# note\n1 2\n3 4\n", 2, "malformed value"),
            ("2 2\n1 2x\n3 4\n", 2, "malformed value"),
            ("2 2\n1,2\n3 4\n", 2, "malformed value"),
            ("2 2\n1  2\n3 4\n", 2, "malformed value"),
            ("2 2\n1 2\n 3 4\n", 3, "malformed value"),
            ("2 2\n1\t2\n3 4\n", 2, "malformed value"),
            ("2 2\n1 2\x003\n3 4\n", 2, "malformed value"),
            ("2 2\n1 2e\n3 4\n", 2, "malformed value"),
            ("2 2\n1 -\n3 4\n", 2, "malformed value"),
            ("2 2\n1 1.5.3\n3 4\n", 2, "malformed value"),
            ("2 2\n1 0x10\n3 4\n", 2, "hexadecimal"),
            ("2 2\n1 2\n-0X1p3 4\n", 3, "hexadecimal"),
        ],
    )
    def test_malformed_matrix_body(self, tmp_path, text, line, what):
        path = tmp_path / "bad.mat"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ") + ".*" + what):
            read_matrix(path)

    def test_vector_row_with_two_values(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_bytes(b"3\n1\n2 4\n3\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ") + "row has more values"):
            read_vector(path)

    @pytest.mark.parametrize("text", [b"2 x\n1 2\n3 4\n", b"-2 2\n1 2\n3 4\n", b"2\n1\n2\n", b""])
    def test_malformed_header(self, tmp_path, text):
        path = tmp_path / "bad.mat"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected 'rows cols' header")):
            read_matrix(path)

    def test_header_larger_than_the_file(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"100000000 100000000\n1 2\n")
        with pytest.raises(ValueError, match="asks for more values than the file"):
            read_matrix(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e999", "1e400"])
    def test_non_finite_value(self, tmp_path, value):
        path = tmp_path / "bad.mat"
        path.write_text(f"1 2\n1 {value}\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_matrix(path)

    @pytest.mark.parametrize("text", ["2 2\r\n1 2\r\n3 4\r\n", "2 2\n1 2 \t\n3 4\n\n \n", "2 2\n1 2\n3 4"])
    def test_trailing_whitespace_crlf_and_no_final_newline(self, tmp_path, text):
        path = tmp_path / "ok.mat"
        path.write_bytes(text.encode())
        assert read_matrix(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]
