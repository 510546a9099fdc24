#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <sys/resource.h>

namespace lfpbench {
namespace {

void append_escaped(std::string& out, std::string_view text) {
    out += '"';
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    out += '"';
}

void append_number(std::string& out, double value) {
    // JSON has no NaN/inf; a non-finite value is a bug upstream, but the
    // line must still parse so lfpbench.py can report the failed check.
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
    out += buffer;
}

void append_pairs(std::string& out, const std::vector<std::pair<std::string, double>>& pairs) {
    out += '{';
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (i != 0) out += ", ";
        append_escaped(out, pairs[i].first);
        out += ": ";
        append_number(out, pairs[i].second);
    }
    out += '}';
}

}  // namespace

bool RunReport::check(std::string name, bool ok, std::string detail) {
    checks.push_back({std::move(name), ok, std::move(detail), false});
    return ok;
}

bool RunReport::validate(std::string name, bool ok, std::string detail) {
    checks.push_back({std::move(name), ok, std::move(detail), true});
    return ok;
}

bool RunReport::all_checks_pass() const {
    return std::all_of(checks.begin(), checks.end(), [](const Check& c) { return c.ok; });
}

std::string RunReport::to_json() const {
    std::string out = "{\"workload\": ";
    append_escaped(out, workload);
    out += ", \"seed\": " + std::to_string(seed) + ", \"size\": " + std::to_string(size) +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"digest\": ";
    append_escaped(out, digest);
    out += ", \"metrics\": ";
    append_pairs(out, metrics);
    out += ", \"layers\": ";
    append_pairs(out, layers);
    out += ", \"checks\": [";
    for (std::size_t i = 0; i < checks.size(); ++i) {
        if (i != 0) out += ", ";
        out += "{\"name\": ";
        append_escaped(out, checks[i].name);
        out += checks[i].ok ? ", \"ok\": true" : ", \"ok\": false";
        out += checks[i].validity ? ", \"kind\": \"valid\", \"detail\": "
                                  : ", \"kind\": \"correct\", \"detail\": ";
        append_escaped(out, checks[i].detail);
        out += '}';
    }
    out += "]}";
    return out;
}

double percentile(std::vector<double>& values, double p) {
    if (values.empty()) return 0.0;
    const double rank = std::ceil(std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size()));
    const std::size_t index =
        std::min(values.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

double process_cpu_s() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb(int pid) {
    std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                  : "/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
        }
    }
    return 0.0;
}

std::uint64_t task_cpu_ns(int pid, int tid) {
    std::ifstream schedstat("/proc/" + std::to_string(pid) + "/task/" + std::to_string(tid) +
                            "/schedstat");
    std::uint64_t on_cpu_ns = 0;
    schedstat >> on_cpu_ns;
    return schedstat ? on_cpu_ns : 0;
}

void Fnv64::add(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
        state_ ^= (value >> (8 * i)) & 0xFF;
        state_ *= 0x100000001b3ull;
    }
}

void Fnv64::add_bytes(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        state_ ^= bytes[i];
        state_ *= 0x100000001b3ull;
    }
}

std::string Fnv64::hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(state_));
    return buffer;
}

}  // namespace lfpbench
