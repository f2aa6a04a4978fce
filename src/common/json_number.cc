#include "json_number.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace pccs {

void
appendDouble(std::string &out, double v)
{
    // The longest %.17g rendering is 24 bytes ("-2.2250738585072014e-308").
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

void
appendJsonNumber(std::string &out, double v)
{
    if (std::isfinite(v))
        appendDouble(out, v);
    else
        out += "null"; // JSON has no NaN/Inf
}

NumberScan
scanJsonNumber(std::string_view text, std::size_t pos)
{
    NumberScan scan;
    const char *const first = text.data() + pos;
    const char *const last = text.data() + text.size();
    const char *p = first;
    const auto digitAt = [last](const char *q) {
        return q != last && *q >= '0' && *q <= '9';
    };
    const auto skipDigits = [&] {
        while (digitAt(p))
            ++p;
    };
    const auto fail = [&scan](NumberError e) {
        scan.error = e;
        return scan;
    };

    if (p != last && *p == '-')
        ++p;
    // Integer part: one zero, or a nonzero digit run.
    if (!digitAt(p))
        return fail(NumberError::NoDigits);
    if (*p == '0')
        ++p;
    else
        skipDigits();
    if (p != last && *p == '.') {
        ++p;
        if (!digitAt(p))
            return fail(NumberError::NoFractionDigits);
        skipDigits();
    }
    if (p != last && (*p == 'e' || *p == 'E')) {
        ++p;
        if (p != last && (*p == '+' || *p == '-'))
            ++p;
        if (!digitAt(p))
            return fail(NumberError::NoExponentDigits);
        skipDigits();
    }
    if (digitAt(p))
        return fail(NumberError::LeadingZero);

    scan.end = pos + static_cast<std::size_t>(p - first);
    const std::from_chars_result r = std::from_chars(first, p, scan.value);
    if (r.ec != std::errc() || r.ptr != p) {
        // Out of range: keep strtod's overflow/underflow values.
        const std::string token(first, p);
        scan.value = std::strtod(token.c_str(), nullptr);
    }
    return scan;
}

} // namespace pccs
