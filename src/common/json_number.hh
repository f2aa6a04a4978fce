/**
 * @file
 * The one number codec of the JSON this library writes and reads and
 * of the model files it writes. (The model-file reader keeps strtod:
 * it accepts strtod's syntax, a leading '+' and hex floats included.)
 *
 * The formatter renders a double with std::to_chars in "general"
 * form at 17 significant digits: the same bytes as printf with %.17g,
 * enough digits for every double to round-trip, and independent of
 * the C locale. The scanner accepts exactly the RFC 8259 number
 * grammar and converts the token with std::from_chars, falling back
 * to std::strtod only when from_chars reports a range error, so
 * overflowing and underflowing tokens get strtod's values (±HUGE_VAL,
 * a subnormal, or a signed zero).
 *
 * Non-finite values are the caller's rule: JSON writes `null`
 * (appendJsonNumber), the model file writes `NA`.
 */

#ifndef PCCS_COMMON_JSON_NUMBER_HH
#define PCCS_COMMON_JSON_NUMBER_HH

#include <cstddef>
#include <string>
#include <string_view>

namespace pccs {

/** Append `v` exactly as printf renders it with %.17g. */
void appendDouble(std::string &out, double v);

/** Append `v` as a JSON number: appendDouble, or `null` if not finite. */
void appendJsonNumber(std::string &out, double v);

/** Why a token is not an RFC 8259 number. */
enum class NumberError
{
    None,
    /** No digit where the number starts (after an optional '-'). */
    NoDigits,
    /** A '.' not followed by a digit. */
    NoFractionDigits,
    /** An 'e'/'E' (and optional sign) not followed by a digit. */
    NoExponentDigits,
    /** An integer part of "0" followed by another digit. */
    LeadingZero,
};

/** The outcome of scanJsonNumber. */
struct NumberScan
{
    double value = 0.0;
    /** One past the token's last byte (valid when ok()). */
    std::size_t end = 0;
    NumberError error = NumberError::None;

    bool ok() const { return error == NumberError::None; }
};

/**
 * Scan the RFC 8259 number that starts at `text[pos]` and convert it.
 * The token ends at the first byte the grammar cannot extend it
 * with; what follows is the caller's to judge.
 */
NumberScan scanJsonNumber(std::string_view text, std::size_t pos);

} // namespace pccs

#endif // PCCS_COMMON_JSON_NUMBER_HH
