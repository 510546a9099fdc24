// The benchmark's two observation points on a census: ProbeTap wraps each
// vantage transport, BenchSink terminates (or forwards) the record stream.
// Both are measured from outside the library — they time calls into its
// public interfaces and never reach inside.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/measurement.hpp"
#include "core/record_sink.hpp"
#include "probe/transport.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace lfpbench {

/// Forwards every ProbeTransport call to the wrapped vantage transport.
/// Always stamps when each target's first probe batch was sent (the start
/// of the per-target latency BenchSink closes). When a Tracer is given it
/// also times send_batch, poll_responses_into and drained, records a span
/// per call, and adds up the CPU time of each sender thread when it exits.
class ProbeTap final : public lfp::probe::ProbeTransport {
  public:
    /// Targets are identified by address: target i is `target_base + i`,
    /// i < `target_count`. Sends to other addresses are forwarded unstamped.
    ProbeTap(lfp::probe::ProbeTransport& inner, std::uint32_t target_base,
             std::size_t target_count, Tracer* tracer, const char* send_span);

    void send_batch(std::span<const lfp::net::Bytes> packets) override;
    std::vector<lfp::net::Bytes> poll_responses(std::chrono::milliseconds timeout) override;
    void poll_responses_into(std::chrono::milliseconds timeout,
                             std::vector<lfp::net::Bytes>& out) override;
    void recycle(lfp::net::Bytes&& buffer) override { inner_->recycle(std::move(buffer)); }
    [[nodiscard]] bool drained() const override;
    [[nodiscard]] lfp::net::IPv4Address vantage_address() const override {
        return inner_->vantage_address();
    }
    [[nodiscard]] std::optional<std::uint64_t> backend_hint(
        lfp::net::IPv4Address target) const override {
        return inner_->backend_hint(target);
    }
    [[nodiscard]] std::chrono::milliseconds transact_timeout() const override {
        return inner_->transact_timeout();
    }

    /// When target `index` was first sent (now_ns clock), 0 = never.
    [[nodiscard]] std::uint64_t first_send_ns(std::size_t index) const {
        return first_send_[index];
    }
    [[nodiscard]] std::uint32_t target_base() const noexcept { return target_base_; }

    /// Traced counters; read once the census has returned (every thread
    /// that wrote them has been joined).
    struct Counters {
        std::uint64_t send_calls = 0;
        std::uint64_t packets_sent = 0;
        std::uint64_t send_ns = 0;        ///< wall time inside inner send_batch
        std::uint64_t polls = 0;
        std::uint64_t empty_polls = 0;
        std::uint64_t poll_ns = 0;        ///< wall time inside inner polls
        std::uint64_t drained_calls = 0;
        std::uint64_t drained_true = 0;
    };
    [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
    /// CPU seconds of every sender thread that has exited.
    [[nodiscard]] double sender_cpu_s() const noexcept {
        return static_cast<double>(sender_cpu_ns_.load(std::memory_order_acquire)) / 1e9;
    }

    /// Called at sender-thread exit (see taps.cpp).
    void add_sender_cpu(std::uint64_t ns) noexcept {
        sender_cpu_ns_.fetch_add(ns, std::memory_order_acq_rel);
    }

  private:
    lfp::probe::ProbeTransport* inner_;
    std::uint32_t target_base_;
    std::vector<std::uint64_t> first_send_;
    Tracer* tracer_;
    const char* send_span_;
    /// Send-side fields are written by the sender thread, receive-side ones
    /// by the receive thread; drained() is const per the interface.
    mutable Counters counters_;
    std::atomic<std::uint64_t> sender_cpu_ns_{0};
};

/// The census workloads' record sink: checks the stream is gap-free and in
/// order, folds every record's CompactRecord fields into the run digest,
/// tallies the output anchors, closes each target's latency (first send to
/// arrival here), optionally compares against a reference census, and
/// forwards to `next` when given. Traced, it also times each accept().
class BenchSink final : public lfp::core::RecordSink {
  public:
    BenchSink(const ProbeTap& tap, std::size_t target_count, Tracer* tracer,
              lfp::core::RecordSink* next = nullptr,
              const std::vector<lfp::core::CompactRecord>* reference = nullptr);

    void accept(std::uint64_t global_index, lfp::core::TargetRecord&& record) override;
    void finish() override;

    [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
    [[nodiscard]] bool ordered() const noexcept { return ordered_; }
    [[nodiscard]] bool finished() const noexcept { return finish_ns_ != 0; }
    [[nodiscard]] std::string digest() const { return digest_.hex(); }
    [[nodiscard]] std::uint64_t responsive() const noexcept { return responsive_; }
    [[nodiscard]] std::uint64_t full_signatures() const noexcept { return full_signatures_; }
    [[nodiscard]] std::uint64_t mismatches() const noexcept { return mismatches_; }
    [[nodiscard]] std::uint64_t first_record_ns() const noexcept { return first_record_ns_; }
    [[nodiscard]] std::uint64_t finish_ns() const noexcept { return finish_ns_; }
    [[nodiscard]] std::uint64_t busy_ns() const noexcept { return busy_ns_; }
    /// Per-target latency samples, microseconds.
    [[nodiscard]] std::vector<double>& latencies_us() noexcept { return latencies_us_; }

  private:
    const ProbeTap* tap_;
    std::size_t target_count_;
    Tracer* tracer_;
    lfp::core::RecordSink* next_;
    const std::vector<lfp::core::CompactRecord>* reference_;
    Fnv64 digest_;
    std::uint64_t records_ = 0;
    bool ordered_ = true;
    std::uint64_t responsive_ = 0;
    std::uint64_t full_signatures_ = 0;
    std::uint64_t mismatches_ = 0;
    std::uint64_t first_record_ns_ = 0;
    std::uint64_t finish_ns_ = 0;
    std::uint64_t busy_ns_ = 0;
    std::vector<double> latencies_us_;
};

/// Folds one record's CompactRecord fields into `digest` field by field
/// (never the raw struct bytes: CompactRecord has padding).
void digest_record(Fnv64& digest, const lfp::core::CompactRecord& record);

}  // namespace lfpbench
