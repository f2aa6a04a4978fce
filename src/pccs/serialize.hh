/**
 * @file
 * Plain-text serialization of PCCS model parameters.
 *
 * The processor-centric methodology's selling point is calibrate-once,
 * predict-forever: a model built on one board (or one simulator
 * configuration) is reused across arbitrary workloads and, via linear
 * scaling, across memory configurations. Persisting the handful of
 * parameters makes that workflow practical — the CLI and downstream
 * tools exchange models as small text files.
 *
 * Format (one key/value pair per line, '#' comments allowed):
 *
 *     pccs-model v1
 *     normalBw 38.1
 *     intensiveBw 96.2
 *     mrmc 4.9          # or "NA" when the PU has no minor region
 *     cbp 45.3
 *     tbwdc 87.2
 *     rateN 1.11
 *     peakBw 137.0
 */

#ifndef PCCS_MODEL_SERIALIZE_HH
#define PCCS_MODEL_SERIALIZE_HH

#include <cstddef>
#include <optional>
#include <string>

#include "pccs/model.hh"

namespace pccs::model {

/** Render parameters in the textual model format. */
std::string paramsToText(const PccsParams &params);

/**
 * Outcome of a non-fatal parse or load. Exactly one of `params` /
 * `error` is meaningful: a failed load never yields a partially
 * filled or silently-defaulted parameter set.
 */
struct ParamsLoad
{
    std::optional<PccsParams> params;
    /** Human-readable diagnostic when `params` is empty. */
    std::string error;

    bool ok() const { return params.has_value(); }
};

/**
 * Parse the textual model format with a full diagnostic: bad header,
 * malformed/duplicate/missing keys (with line numbers), non-numeric
 * or non-finite values, and which structural constraint failed when
 * the parameters are out of range.
 */
ParamsLoad paramsFromTextChecked(const std::string &text);

/**
 * Parse the textual model format.
 * @return the parameters, or std::nullopt with a warning when the
 *         text is malformed or parameters are invalid
 */
std::optional<PccsParams> paramsFromText(const std::string &text);

/**
 * @return the first violated structural constraint of `params` as
 *         text, or an empty string when `params.valid()`.
 */
std::string paramsValidationError(const PccsParams &params);

/** Write parameters to a file; fatal on I/O failure. */
void saveParams(const PccsParams &params, const std::string &path);

/**
 * Largest model file tryLoadParams() accepts, in bytes. A model file
 * is a few hundred bytes of `key value` lines, so this only bounds
 * what a hostile or mistaken path can make a loader read.
 */
inline constexpr std::size_t kMaxModelFileBytes = 64 * 1024;

/**
 * Read parameters from a file without exiting on failure. Only a
 * regular file of at most kMaxModelFileBytes is read; anything else
 * (a directory, a device such as /dev/zero, a FIFO — opened without
 * waiting for a writer) is an error value, so a network-supplied path
 * can neither block the caller nor exhaust its memory.
 */
ParamsLoad tryLoadParams(const std::string &path);

/** Read parameters from a file; fatal on I/O or parse failure. */
PccsParams loadParams(const std::string &path);

} // namespace pccs::model

#endif // PCCS_MODEL_SERIALIZE_HH
