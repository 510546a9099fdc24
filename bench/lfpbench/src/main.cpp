// lfpbench: one repetition of one workload per process.
//
//   lfpbench --workload NAME [--seed N] [--smoke] [--trace-file PATH]
//            [--serve-bin PATH]     run one repetition, print its JSON report
//   lfpbench --selftest --trace-file PATH
//   lfpbench --provenance          build type and GSO/GRO availability
//
// lfpbench.py starts one process per repetition (run.sh is the entry
// point); the working directory it gives is where spill segments, the
// daemon's socket and its log go.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "probe/wire.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace lfpbench;

int selftest(const std::string& trace_file) {
    bool ok = true;
    auto expect = [&ok](bool passed, const std::string& what) {
        std::cerr << (passed ? "selftest PASS: " : "selftest FAIL: ") << what << '\n';
        ok = ok && passed;
    };

    std::vector<double> hundred(100);
    std::iota(hundred.begin(), hundred.end(), 1.0);
    expect(percentile(hundred, 0.50) == 50.0 && percentile(hundred, 0.99) == 99.0 &&
               percentile(hundred, 1.0) == 100.0 && percentile(hundred, 0.0) == 1.0,
           "nearest-rank percentiles of 1..100");
    std::vector<double> one{5.0};
    std::vector<double> three{3.0, 1.0, 2.0};
    std::vector<double> none;
    expect(percentile(one, 0.99) == 5.0 && percentile(three, 0.5) == 2.0 &&
               percentile(none, 0.5) == 0.0,
           "percentiles of a single, an unsorted and an empty sample");

    const DigestPair pair = loopback_digest_pair(2000, 7, trace_file);
    expect(pair.ok && pair.mismatches == 0 && pair.in_process == pair.loopback,
           "2k-target loopback census equals the in-process census (" + pair.in_process +
               " vs " + pair.loopback + ", " + std::to_string(pair.mismatches) + " differ)");
    return ok ? 0 : 1;
}

int provenance() {
    lfp::probe::WireConfig config;
    config.source = "127.0.0.1";
    const lfp::probe::DgramWireBackend probe(config);
    std::cout << "{\"build_type\": \"" << LFPBENCH_BUILD_TYPE << "\", \"gso\": "
              << (probe.gso_available() ? "true" : "false")
              << ", \"gro\": " << (probe.gro_available() ? "true" : "false") << "}\n";
    return 0;
}

int usage() {
    std::cerr << "usage: lfpbench --workload NAME [--seed N] [--smoke] [--trace-file PATH]\n"
                 "                [--serve-bin PATH]\n"
                 "       lfpbench --selftest --trace-file PATH\n"
                 "       lfpbench --provenance\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    bool run_selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        if (flag == "--workload" && has_value) {
            options.workload = argv[++i];
        } else if (flag == "--seed" && has_value) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (flag == "--trace-file" && has_value) {
            options.trace_file = argv[++i];
        } else if (flag == "--serve-bin" && has_value) {
            options.serve_bin = argv[++i];
        } else if (flag == "--smoke") {
            options.smoke = true;
        } else if (flag == "--selftest") {
            run_selftest = true;
        } else if (flag == "--provenance") {
            return provenance();
        } else {
            return usage();
        }
    }
    try {
        if (run_selftest) {
            return options.trace_file.empty() ? usage() : selftest(options.trace_file);
        }
        RunReport report;
        if (is_census_workload(options.workload)) {
            report = run_census_workload(options);
        } else if (options.workload == "serve-socket" && !options.serve_bin.empty()) {
            report = run_serve_workload(options);
        } else {
            return usage();
        }
        std::cout << report.to_json() << std::endl;
        return report.all_checks_pass() ? 0 : 1;
    } catch (const std::exception& error) {
        std::cerr << "lfpbench: " << options.workload << ": " << error.what() << '\n';
        return 3;
    }
}
