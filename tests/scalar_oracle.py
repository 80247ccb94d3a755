"""The original scalar reader, kept as an oracle.

``parse_scalar`` is copied verbatim from ``ortholab.linalg`` as it was before
the scalar grammar became one compiled term pattern: it walks the text one
character at a time in a nested ``signed_term`` scanner.  One edit since:
its two ``in token …`` messages quote the token through ``_quote``, so a
long token is cut there as the current reader cuts it.
``tests/test_scalar_oracle.py`` checks that the current reader returns the
same value, or raises the same error type with the same message, on every
input it generates.
"""

from ortholab.linalg import Rational, Scalar, ScalarParseError, _digit_run, _quote


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar wire grammar; exact inverse of the canonical printer.

    Accepted forms: ``3``, ``-1/2``, ``i``, ``-i``, ``2i``, ``1+i``,
    ``3/4-1/3i``.  A real part, when present, precedes the imaginary part.
    """
    if not isinstance(text, str):
        raise TypeError(f"scalars must be strings in the scalar grammar, not {_quote(text)}")
    # surrounding whitespace is ignored; positions count in the text as given
    s = text.rstrip()
    n = len(s)
    pos = n - len(s.lstrip())
    if pos == n:
        raise ScalarParseError("empty scalar text")

    def signed_term():
        # one signed term; returns (is_imaginary, rational value)
        nonlocal pos
        start = pos
        sign = 1
        if pos < n and s[pos] in "+-":
            if s[pos] == "-":
                sign = -1
            pos += 1
        if pos < n and s[pos] == "i":
            pos += 1
            return True, Rational(sign)
        digits_start = pos
        while pos < n and s[pos] in "0123456789":
            pos += 1
        if pos == digits_start:
            found = s[pos] if pos < n else "end of text"
            raise ScalarParseError(
                f"expected digits at position {pos + 1} in {_quote(text)}, found {found!r}"
            )
        num = _digit_run(s[digits_start:pos])
        den = 1
        if pos < n and s[pos] == "/":
            pos += 1
            den_start = pos
            while pos < n and s[pos] in "0123456789":
                pos += 1
            if pos == den_start:
                raise ScalarParseError(
                    f"expected denominator digits in token {_quote(s[start:pos])}"
                )
            den = _digit_run(s[den_start:pos])
            if den == 0:
                raise ScalarParseError(f"zero denominator in token {_quote(s[start:pos])}")
        value = Rational(sign * num, den)
        if pos < n and s[pos] == "i":
            pos += 1
            return True, value
        return False, value

    first_imag, first = signed_term()
    if pos == n:
        return Scalar(0, first) if first_imag else Scalar(first, 0)
    if first_imag:
        raise ScalarParseError(
            f"unexpected {s[pos]!r} at position {pos + 1} in {_quote(text)}:"
            " the imaginary term must come last"
        )
    if s[pos] not in "+-":
        raise ScalarParseError(f"unexpected {s[pos]!r} at position {pos + 1} in {_quote(text)}")
    second_at = pos + 1
    second_imag, second = signed_term()
    if not second_imag:
        raise ScalarParseError(
            f"expected an imaginary term at position {second_at} in {_quote(text)}"
        )
    if pos != n:
        raise ScalarParseError(
            f"trailing {_quote(s[pos:])} at position {pos + 1} in {_quote(text)}"
        )
    return Scalar(first, second)
