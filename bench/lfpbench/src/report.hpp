// What one workload repetition reports, and the process-level probes the
// workloads share. A repetition runs in its own process (lfpbench.py starts
// one per repetition), so VmHWM and the allocation counters start fresh;
// it prints exactly one JSON line — RunReport::to_json() — which
// lfpbench.py aggregates across repetitions.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lfpbench {

/// Command-line settings of one repetition.
struct Options {
    std::string workload;
    std::uint64_t seed = 7;
    bool smoke = false;
    /// Non-empty = traced repetition: per-layer metrics plus this trace file.
    std::string trace_file;
    /// The lfp_serve binary for serve-socket.
    std::string serve_bin;

    [[nodiscard]] bool traced() const noexcept { return !trace_file.empty(); }
};

struct RunReport {
    std::string workload;
    std::uint64_t seed = 0;
    /// Targets per census, or requests planned for serve-socket.
    std::uint64_t size = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// FNV-1a over every record's CompactRecord fields (census workloads).
    std::string digest;

    void metric(std::string name, double value) { metrics.emplace_back(std::move(name), value); }
    void layer(std::string name, double value) { layers.emplace_back(std::move(name), value); }
    /// Records a check on the program's output; returns `ok`.
    bool check(std::string name, bool ok, std::string detail = {});
    /// Records a check on the measurement itself (the workload ran as
    /// designed). A repetition failing one is invalid, not incorrect: the
    /// repetition is discarded and repeated.
    bool validate(std::string name, bool ok, std::string detail = {});

    [[nodiscard]] bool all_checks_pass() const;
    [[nodiscard]] std::string to_json() const;

    std::vector<std::pair<std::string, double>> metrics;  ///< end to end
    std::vector<std::pair<std::string, double>> layers;   ///< per layer, traced only

    struct Check {
        std::string name;
        bool ok = false;
        std::string detail;
        bool validity = false;
    };
    std::vector<Check> checks;
};

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
/// Reorders `values`.
[[nodiscard]] double percentile(std::vector<double>& values, double p);

/// Share helper that is 0 instead of NaN for an empty base.
[[nodiscard]] inline double ratio(double part, double whole) {
    return whole != 0.0 ? part / whole : 0.0;
}

/// CPU seconds (user + system) of this process so far, all threads.
[[nodiscard]] double process_cpu_s();

/// VmHWM of `pid` (0 = this process) in MB, or 0 when unreadable.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// CPU nanoseconds consumed so far by thread `tid` of process `pid`
/// (/proc schedstat), or 0 when unreadable.
[[nodiscard]] std::uint64_t task_cpu_ns(int pid, int tid);

/// 64-bit FNV-1a, fed field by field.
class Fnv64 {
  public:
    void add(std::uint64_t value) noexcept;
    void add_bytes(const void* data, std::size_t size) noexcept;
    [[nodiscard]] std::string hex() const;

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ull;
};

}  // namespace lfpbench
