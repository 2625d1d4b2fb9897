#pragma once
// Checked environment-knob parsing. Every tunable the library reads
// from the environment (C56_CONVERT_WORKERS, C56_XOR_KERNEL, ...) goes
// through here so garbage, negative, or overflowing values cannot
// silently become 0, wrap, or hit undefined behaviour in atoi. Invalid input warns once per variable per process
// on stderr and falls back to the caller's default; numeric input
// outside the sane range is clamped to the nearer bound (also with a
// one-shot warning).

#include <optional>
#include <string>

namespace c56::util {

/// Integer knob `name` constrained to [lo, hi].
///  * unset            -> nullopt, silent (caller keeps its default)
///  * non-numeric, trailing junk, or empty -> nullopt + one warning
///  * numeric but out of [lo, hi] (including values that overflow
///    long long) -> clamped to the nearer bound + one warning
///  * otherwise the parsed value
std::optional<long long> env_int(const char* name, long long lo,
                                 long long hi);

/// Emit "c56: $name: $msg" to stderr, at most once per `name` for the
/// lifetime of the process (shared by env_int and by knobs with
/// non-integer domains, e.g. C56_XOR_KERNEL's unknown-name warning).
/// When a sink is installed (set_env_warn_sink) delivery goes through
/// it instead of stderr; the once-per-name dedup happens here either
/// way.
void warn_env_once(const std::string& name, const std::string& msg);

/// Process-wide replacement sink for warn_env_once. The observability
/// layer installs one so knob warnings become structured events (util
/// cannot depend on obs, so the inversion happens through this
/// pointer). nullptr restores the default stderr delivery. The sink
/// must be callable for the rest of the process lifetime and must not
/// call back into warn_env_once.
using EnvWarnSink = void (*)(const char* name, const char* msg);
void set_env_warn_sink(EnvWarnSink sink) noexcept;

}  // namespace c56::util
