// The census workloads: a target list, a ScaleTransport world, one
// CensusRunner call, a BenchSink at the end of the stream.
//
//   census-spill     the bench_scale shape: 2 passes spilled to disk, a
//                    sink that does almost nothing, few re-probes.
//   census-retry     heavy loss, 3 passes held in memory: the other
//                    multi-pass engine, dominated by merging re-probes.
//   census-loopback  one pass through real loopback sockets to a responder
//                    thread: syscalls, GSO/GRO and asynchronous arrival, with
//                    the simulator off the engine's critical path.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>

#include "alloc_count.hpp"
#include "core/census.hpp"
#include "loopback.hpp"
#include "sim/scale_world.hpp"
#include "taps.hpp"
#include "workloads.hpp"

namespace lfpbench {
namespace {

using lfp::core::CompactRecord;

struct Shape {
    const char* name;
    std::size_t targets;
    std::size_t smoke_targets;
    double responsive;
    double loss;
    std::size_t passes;
    bool spill;
    std::size_t window;
    bool loopback;
};

constexpr std::array<Shape, 3> kShapes = {{
    {"census-spill", 150'000, 15'000, 0.65, 0.02, 2, true, 256, false},
    {"census-retry", 100'000, 10'000, 0.90, 0.20, 3, false, 256, false},
    {"census-loopback", 20'000, 2'000, 0.65, 0.02, 1, false, 256, true},
}};

/// Targets are 11.0.0.0 upward, as in bench_scale.
constexpr std::uint32_t kTargetBase = 0x0B000000;

const Shape& shape_named(std::string_view name) {
    for (const Shape& shape : kShapes) {
        if (name == shape.name) return shape;
    }
    throw std::invalid_argument("unknown census workload '" + std::string(name) + "'");
}

lfp::sim::ScaleWorldConfig world_of(const Shape& shape, std::uint64_t seed) {
    return {.seed = seed, .responsive_fraction = shape.responsive, .loss_rate = shape.loss};
}

std::vector<lfp::net::IPv4Address> make_targets(std::size_t count) {
    std::vector<lfp::net::IPv4Address> targets;
    targets.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        targets.emplace_back(kTargetBase + static_cast<std::uint32_t>(i));
    }
    return targets;
}

/// Library defaults except what the workload table fixes: window, passes,
/// spill, and no retained request bytes (the internet-scale setting).
lfp::core::CensusPlan plan_for(const Shape& shape, lfp::probe::ProbeTransport& vantage) {
    lfp::core::CensusPlan plan;
    plan.name = shape.name;
    plan.vantages = {&vantage};
    plan.campaign.window = shape.window;
    plan.campaign.keep_request_bytes = false;
    plan.passes = shape.passes;
    plan.spill = shape.spill;
    plan.spill_config.directory = "spill";
    return plan;
}

void run_stream(lfp::core::CensusRunner& runner, const Shape& shape,
                std::span<const lfp::net::IPv4Address> targets, lfp::core::RecordSink& sink) {
    if (shape.passes > 1) {
        runner.stream_passes(targets, {}, shape.passes, sink);
    } else {
        runner.stream(targets, {}, sink);
    }
}

/// The untimed in-process census the loopback census must reproduce.
std::vector<CompactRecord> reference_census(const Shape& shape, std::uint64_t seed,
                                            std::span<const lfp::net::IPv4Address> targets) {
    class Collect final : public lfp::core::RecordSink {
      public:
        explicit Collect(std::vector<CompactRecord>& out) : out_(&out) {}
        void accept(std::uint64_t, lfp::core::TargetRecord&& record) override {
            out_->push_back(CompactRecord::from_record(record));
        }

      private:
        std::vector<CompactRecord>* out_;
    };
    std::vector<CompactRecord> records;
    records.reserve(targets.size());
    lfp::sim::ScaleTransport sim(world_of(shape, seed));
    lfp::core::CensusRunner runner(plan_for(shape, sim));
    Collect collect(records);
    run_stream(runner, shape, targets, collect);
    return records;
}

/// Everything one census repetition holds. Construction is the workload's
/// set-up (timed as setup_s); run() is the measured census.
class CensusHarness {
  public:
    CensusHarness(const Shape& shape, std::size_t count, std::uint64_t seed, Tracer* tracer,
                  const std::vector<CompactRecord>* reference)
        : shape(shape), tracer(tracer), targets(make_targets(count)) {
        lfp::probe::ProbeTransport* vantage = nullptr;
        if (shape.loopback) {
            responder = std::make_unique<LoopbackResponder>(world_of(shape, seed));
            loopback = std::make_unique<LoopbackTransport>(*responder);
            if (!loopback->ready()) {
                throw std::runtime_error("loopback sockets unavailable: " +
                                         responder->status() + " / " +
                                         loopback->wire().status());
            }
            vantage = loopback.get();
        } else {
            sim.emplace(world_of(shape, seed));
            vantage = &*sim;
        }
        tap = std::make_unique<ProbeTap>(*vantage, kTargetBase, count, tracer,
                                         shape.loopback ? "wire.send" : "sim.send_batch");
        runner = std::make_unique<lfp::core::CensusRunner>(plan_for(shape, *tap));
        sink = std::make_unique<BenchSink>(*tap, count, tracer, nullptr, reference);
    }

    void run() {
        const std::uint32_t root = tracer != nullptr ? tracer->open("census") : Tracer::kNone;
        if (tracer != nullptr) tracer->set_root(root);
        responder_cpu_start_ = responder_cpu_s();
        start_ns_ = now_ns();
        run_stream(*runner, shape, targets, *sink);
        end_ns_ = now_ns();
        responder_cpu_end_ = responder_cpu_s();
        if (responder) responder->stop();
        if (tracer != nullptr) {
            const std::uint64_t first = sink->first_record_ns();
            tracer->leaf("core.probe_phase", start_ns_, first, root);
            tracer->leaf("core.drain", first, sink->finish_ns(), root);
            tracer->close(root);
        }
    }

    [[nodiscard]] double wall_s() const { return static_cast<double>(end_ns_ - start_ns_) / 1e9; }
    [[nodiscard]] double responder_cpu_during_run_s() const {
        return responder_cpu_end_ - responder_cpu_start_;
    }
    [[nodiscard]] std::uint64_t start_ns() const { return start_ns_; }

    const Shape& shape;
    Tracer* tracer;
    std::vector<lfp::net::IPv4Address> targets;
    std::optional<lfp::sim::ScaleTransport> sim;
    std::unique_ptr<LoopbackResponder> responder;
    std::unique_ptr<LoopbackTransport> loopback;
    std::unique_ptr<ProbeTap> tap;
    std::unique_ptr<lfp::core::CensusRunner> runner;
    std::unique_ptr<BenchSink> sink;

  private:
    [[nodiscard]] double responder_cpu_s() const {
        return responder ? responder->cpu_s() : 0.0;
    }

    std::uint64_t start_ns_ = 0;
    std::uint64_t end_ns_ = 0;
    double responder_cpu_start_ = 0.0;
    double responder_cpu_end_ = 0.0;
};

void report_layers(RunReport& report, const CensusHarness& harness,
                   const alloc::Totals& before, const alloc::Totals& after) {
    const Shape& shape = harness.shape;
    const auto n = static_cast<double>(harness.targets.size());
    const ProbeTap::Counters& tap = harness.tap->counters();
    const BenchSink& sink = *harness.sink;
    const lfp::core::CensusRunner& runner = *harness.runner;

    // sim: ScaleTransport::send_batch, on the sender thread in process and
    // on the responder thread over loopback.
    const double sim_s = shape.loopback ? harness.responder->sim_s()
                                        : static_cast<double>(tap.send_ns) / 1e9;
    const double sim_packets = static_cast<double>(
        shape.loopback ? harness.responder->sim_packets() : harness.sim->packets_seen());
    report.layer("sim.busy_s", sim_s);
    report.layer("sim.ns_per_packet", ratio(sim_s * 1e9, sim_packets));

    const double sender_cpu = harness.tap->sender_cpu_s();
    report.layer("probe.sender_cpu_s", sender_cpu);
    report.layer("probe.engine_cpu_us_per_target",
                 (sender_cpu - (shape.loopback ? 0.0 : sim_s)) * 1e6 / n);
    report.layer("probe.recv_polls_per_target", static_cast<double>(tap.polls) / n);
    report.layer("probe.recv_empty_share",
                 ratio(static_cast<double>(tap.empty_polls), static_cast<double>(tap.polls)));
    report.layer("probe.recv_wait_s", static_cast<double>(tap.poll_ns) / 1e9);
    report.layer("probe.drained_true_share", ratio(static_cast<double>(tap.drained_true),
                                                   static_cast<double>(tap.drained_calls)));
    report.layer("probe.packets_per_target", static_cast<double>(runner.packets_sent()) / n);
    report.layer("probe.responses_per_target",
                 static_cast<double>(runner.responses_received()) / n);
    report.layer("probe.strays", static_cast<double>(runner.stray_responses()));

    if (shape.loopback) {
        const auto& c = harness.loopback->wire().counters();
        const auto& r = harness.responder->wire_counters();
        const auto sent = static_cast<double>(c.packets_sent + r.packets_sent);
        report.layer("wire.pkts_per_send_syscall",
                     ratio(sent, static_cast<double>(c.send_syscalls + r.send_syscalls)));
        report.layer("wire.pkts_per_recv_syscall",
                     ratio(static_cast<double>(c.packets_received + r.packets_received),
                           static_cast<double>(c.recv_syscalls + r.recv_syscalls)));
        report.layer("wire.gso_share",
                     ratio(static_cast<double>(c.gso_segments + r.gso_segments), sent));
        report.layer("wire.gro_splits_per_target",
                     static_cast<double>(c.gro_splits + r.gro_splits) / n);
        report.layer("wire.transient_send_errors",
                     static_cast<double>(c.transient_send_errors + r.transient_send_errors));
        report.layer("wire.send_failures",
                     static_cast<double>(c.send_failures + r.send_failures));
        report.layer("responder.busy_s", harness.responder_cpu_during_run_s());
    }

    report.layer("core.probe_phase_s",
                 static_cast<double>(sink.first_record_ns() - harness.start_ns()) / 1e9);
    report.layer("core.drain_s",
                 static_cast<double>(sink.finish_ns() - sink.first_record_ns()) / 1e9);
    report.layer("core.sink_busy_s", static_cast<double>(sink.busy_ns()) / 1e9);
    report.layer("core.responsive_share", static_cast<double>(sink.responsive()) / n);
    report.layer("core.full_signature_share", static_cast<double>(sink.full_signatures()) / n);

    const std::string bucket_names[] = {"lane", "admit", "dispatch", "recv", "sim",
                                        "assemble", "sink", "untagged"};
    for (std::size_t i = 0; i <= alloc::kStageCount; ++i) {
        report.layer("alloc." + bucket_names[i] + "_per_target",
                     static_cast<double>(after.stage[i] - before.stage[i]) / n);
    }

    const auto& passes = runner.last_pass_stats();
    if (passes.size() > 1) {
        std::uint64_t reprobed = 0;
        std::uint64_t upgraded = 0;
        for (std::size_t p = 1; p < passes.size(); ++p) {
            reprobed += passes[p].probed;
            upgraded += passes[p].upgraded;
        }
        report.layer("retry.reprobe_share", static_cast<double>(reprobed) / n);
        report.layer("retry.upgrade_yield",
                     ratio(static_cast<double>(upgraded), static_cast<double>(reprobed)));
        report.layer("retry.final_incomplete_share",
                     static_cast<double>(passes.back().incomplete) / n);
    }
}

}  // namespace

bool is_census_workload(std::string_view name) {
    for (const Shape& shape : kShapes) {
        if (name == shape.name) return true;
    }
    return false;
}

RunReport run_census_workload(const Options& options) {
    const Shape& shape = shape_named(options.workload);
    const std::size_t count = options.smoke ? shape.smoke_targets : shape.targets;
    RunReport report;
    report.workload = shape.name;
    report.seed = options.seed;
    report.size = count;

    std::unique_ptr<Tracer> tracer;
    if (options.traced()) {
        tracer = std::make_unique<Tracer>();
        alloc::enable_stage_buckets();
    }
    std::vector<CompactRecord> reference;
    if (shape.loopback) reference = reference_census(shape, options.seed, make_targets(count));

    const std::uint64_t setup_start = now_ns();
    CensusHarness harness(shape, count, options.seed, tracer.get(),
                          shape.loopback ? &reference : nullptr);
    const double setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

    const alloc::Totals allocs_before = alloc::snapshot();
    const double cpu_before = process_cpu_s();
    harness.run();
    const double cpu_s =
        process_cpu_s() - cpu_before - harness.responder_cpu_during_run_s();
    const alloc::Totals allocs_after = alloc::snapshot();

    BenchSink& sink = *harness.sink;
    const auto n = static_cast<double>(count);
    const double wall = harness.wall_s();
    std::vector<double>& latencies = sink.latencies_us();
    const std::size_t latency_samples = latencies.size();
    report.metric("ops_per_s", n / wall);
    report.metric("cpu_us_per_op", cpu_s * 1e6 / n);
    report.metric("allocs_per_op",
                  static_cast<double>(allocs_after.total - allocs_before.total) / n);
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("setup_s", setup_s);
    report.metric("p50_us", percentile(latencies, 0.50));
    report.metric("p90_us", percentile(latencies, 0.90));
    report.metric("refresh_ms", wall * 1e3);

    report.digest = sink.digest();
    report.attempted = count;
    report.failed = (count - std::min<std::uint64_t>(sink.records(), count)) + sink.mismatches();
    report.check("stream gap-free and in order",
                 sink.records() == count && sink.ordered() && sink.finished(),
                 std::to_string(sink.records()) + " of " + std::to_string(count) + " records");
    report.check("every target timed", latency_samples == count,
                 std::to_string(latency_samples) + " latency samples");
    if (shape.loopback) {
        report.check("loopback records equal the in-process census", sink.mismatches() == 0,
                     std::to_string(sink.mismatches()) + " targets differ");
    }
    if (shape.passes > 1) {
        const auto& passes = harness.runner->last_pass_stats();
        report.check("retry passes re-probed and upgraded targets",
                     passes.size() == shape.passes && passes[1].probed > 0 &&
                         passes[1].upgraded > 0,
                     std::to_string(passes.size()) + " passes");
    }
    if (tracer) {
        report_layers(report, harness, allocs_before, allocs_after);
        report.check("trace written", tracer->write_chrome_json(options.trace_file),
                     options.trace_file);
    }
    return report;
}

DigestPair loopback_digest_pair(std::size_t targets, std::uint64_t seed,
                                const std::string& trace_file) {
    const Shape& shape = shape_named("census-loopback");
    DigestPair pair;
    const std::vector<CompactRecord> reference =
        reference_census(shape, seed, make_targets(targets));
    Fnv64 digest;
    for (const CompactRecord& record : reference) digest_record(digest, record);
    pair.in_process = digest.hex();

    Tracer tracer;
    CensusHarness harness(shape, targets, seed, &tracer, &reference);
    harness.run();
    pair.loopback = harness.sink->digest();
    pair.mismatches = harness.sink->mismatches();
    pair.ok = reference.size() == targets && harness.sink->records() == targets &&
              harness.sink->ordered() && tracer.write_chrome_json(trace_file);
    return pair;
}

}  // namespace lfpbench
