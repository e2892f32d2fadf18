"""The Gamma values behind the trace constant K_n, against 30-digit
references."""

import pytest

from conestab.stability import kato_constant

# 30-digit references at quarter integers (independent high-precision source).
QUARTER_INTEGER_REFERENCES = {
    0.25: 3.6256099082219083119306851558677,
    0.50: 1.7724538509055160272981674833411,
    0.75: 1.2254167024651776451290983033629,
    1.00: 1.0,
    1.25: 0.90640247705547707798267128896692,
    1.50: 0.88622692545275801364908374167057,
    1.75: 0.91906252684888323384682372752217,
    2.00: 1.0,
    2.25: 1.1330030963193463474783391112086,
    2.50: 1.3293403881791370204736256125059,
    2.75: 1.6083594219855456592319415231638,
    3.00: 2.0,
    3.25: 2.5492569667185292818262630002195,
    3.50: 3.3233509704478425511840640312646,
    3.75: 4.4229884104602505628878391887004,
    4.00: 6.0,
}


@pytest.mark.parametrize("z,ref", sorted(QUARTER_INTEGER_REFERENCES.items()))
def test_quarter_integer_certification(z, ref):
    """Every K_n = 2 Gamma(n/4)^2 / Gamma((n-2)/4)^2 with 3 <= n <= 16 that
    has Gamma(z) as a factor matches the references within 1e-13."""
    gamma = QUARTER_INTEGER_REFERENCES
    dims = [n for n in range(3, 17) if z in (n / 4, (n - 2) / 4)]
    assert dims
    for n in dims:
        exact = 2.0 * (gamma[n / 4] / gamma[(n - 2) / 4]) ** 2
        assert abs(kato_constant(n) - exact) <= 1e-13 * exact
