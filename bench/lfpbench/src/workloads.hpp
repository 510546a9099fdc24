// The four lfpbench workloads. Each entry point runs one repetition in the
// calling process and returns its report; main.cpp prints it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "report.hpp"

namespace lfpbench {

/// census-spill, census-retry and census-loopback.
[[nodiscard]] bool is_census_workload(std::string_view name);
[[nodiscard]] RunReport run_census_workload(const Options& options);

/// serve-socket.
[[nodiscard]] RunReport run_serve_workload(const Options& options);

/// The digest of an in-process census and of the same census over the
/// loopback sockets, at `targets` targets; `traced` runs the loopback one
/// under a Tracer writing to `trace_file`. For --selftest.
struct DigestPair {
    std::string in_process;
    std::string loopback;
    std::uint64_t mismatches = 0;
    bool ok = false;  ///< both censuses completed gap-free
};
[[nodiscard]] DigestPair loopback_digest_pair(std::size_t targets, std::uint64_t seed,
                                              const std::string& trace_file);

}  // namespace lfpbench
