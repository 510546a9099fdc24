#include "taps.hpp"

#include <algorithm>
#include <cstring>

namespace lfpbench {
namespace {

/// Adds a sender thread's whole CPU time to its tap when the thread exits —
/// the census joins its lane threads before returning, so the total is
/// complete by the time the workload reads it.
struct SenderExit {
    ProbeTap* tap = nullptr;
    ~SenderExit() {
        if (tap != nullptr) tap->add_sender_cpu(thread_cpu_ns());
    }
};
thread_local SenderExit t_sender_exit;

/// Polls shorter than this that returned nothing are counted, not spanned:
/// an in-process receive loop spins through millions of them.
constexpr std::uint64_t kPollSpanFloorNs = 100'000;

}  // namespace

ProbeTap::ProbeTap(lfp::probe::ProbeTransport& inner, std::uint32_t target_base,
                   std::size_t target_count, Tracer* tracer, const char* send_span)
    : inner_(&inner),
      target_base_(target_base),
      first_send_(target_count, 0),
      tracer_(tracer),
      send_span_(send_span) {}

void ProbeTap::send_batch(std::span<const lfp::net::Bytes> packets) {
    const std::uint64_t start = now_ns();
    if (!packets.empty() && packets.front().size() >= 20) {
        const std::uint8_t* ip = packets.front().data();
        const std::uint32_t destination = (std::uint32_t{ip[16]} << 24) |
                                          (std::uint32_t{ip[17]} << 16) |
                                          (std::uint32_t{ip[18]} << 8) | ip[19];
        const std::uint32_t index = destination - target_base_;
        if (index < first_send_.size() && first_send_[index] == 0) first_send_[index] = start;
    }
    inner_->send_batch(packets);
    if (tracer_ == nullptr) return;
    const std::uint64_t end = now_ns();
    ++counters_.send_calls;
    counters_.packets_sent += packets.size();
    counters_.send_ns += end - start;
    tracer_->leaf(send_span_, start, end, tracer_->root());
    t_sender_exit.tap = this;
}

std::vector<lfp::net::Bytes> ProbeTap::poll_responses(std::chrono::milliseconds timeout) {
    std::vector<lfp::net::Bytes> out;
    poll_responses_into(timeout, out);
    return out;
}

void ProbeTap::poll_responses_into(std::chrono::milliseconds timeout,
                                   std::vector<lfp::net::Bytes>& out) {
    if (tracer_ == nullptr) {
        inner_->poll_responses_into(timeout, out);
        return;
    }
    const std::size_t before = out.size();
    const std::uint64_t start = now_ns();
    inner_->poll_responses_into(timeout, out);
    const std::uint64_t end = now_ns();
    ++counters_.polls;
    counters_.poll_ns += end - start;
    const bool empty = out.size() == before;
    if (empty) ++counters_.empty_polls;
    if (!empty || end - start >= kPollSpanFloorNs) {
        tracer_->leaf("probe.poll", start, end, tracer_->root());
    }
}

bool ProbeTap::drained() const {
    const bool drained = inner_->drained();
    if (tracer_ != nullptr) {
        ++counters_.drained_calls;
        if (drained) ++counters_.drained_true;
    }
    return drained;
}

void digest_record(Fnv64& digest, const lfp::core::CompactRecord& r) {
    std::uint64_t confidence_bits = 0;
    std::memcpy(&confidence_bits, &r.lfp_confidence, sizeof(confidence_bits));
    digest.add(confidence_bits);
    digest.add(r.target);
    digest.add(static_cast<std::uint32_t>(r.snmp_message_id));
    digest.add(static_cast<std::uint32_t>(r.engine_boots));
    digest.add(static_cast<std::uint32_t>(r.engine_time));
    digest.add(r.engine_enterprise);
    digest.add(r.response_mask);
    digest.add(r.pass);
    for (const std::uint16_t ipid : r.request_ipids) digest.add(ipid);
    const lfp::core::FeatureVector& f = r.features;
    for (const auto value :
         {std::uint64_t{f.protocol_mask}, std::uint64_t(f.icmp_ipid_echo),
          std::uint64_t(f.ipid_icmp), std::uint64_t(f.ipid_tcp), std::uint64_t(f.ipid_udp),
          std::uint64_t(f.shared_all), std::uint64_t(f.shared_tcp_icmp),
          std::uint64_t(f.shared_udp_icmp), std::uint64_t(f.shared_tcp_udp),
          std::uint64_t{f.ittl_icmp}, std::uint64_t{f.ittl_tcp}, std::uint64_t{f.ittl_udp},
          std::uint64_t{f.size_icmp}, std::uint64_t{f.size_tcp}, std::uint64_t{f.size_udp},
          std::uint64_t(f.tcp_rst_seq_nonzero)}) {
        digest.add(value);
    }
    digest.add(r.engine_format);
    digest.add(r.engine_new_format);
    digest.add(r.engine_remainder_len);
    digest.add_bytes(r.engine_remainder.data(),
                     std::min<std::size_t>(r.engine_remainder_len, r.engine_remainder.size()));
    digest.add(r.snmp_vendor);
    digest.add(r.lfp_vendor);
    digest.add(r.lfp_kind);
}

BenchSink::BenchSink(const ProbeTap& tap, std::size_t target_count, Tracer* tracer,
                     lfp::core::RecordSink* next,
                     const std::vector<lfp::core::CompactRecord>* reference)
    : tap_(&tap),
      target_count_(target_count),
      tracer_(tracer),
      next_(next),
      reference_(reference) {
    latencies_us_.reserve(target_count);
}

void BenchSink::accept(std::uint64_t global_index, lfp::core::TargetRecord&& record) {
    const std::uint64_t start = now_ns();
    if (first_record_ns_ == 0) first_record_ns_ = start;
    ordered_ = ordered_ && global_index == records_;
    ++records_;

    const lfp::core::CompactRecord compact = lfp::core::CompactRecord::from_record(record);
    digest_record(digest_, compact);
    if (record.responsive()) ++responsive_;
    if (record.probes.all_protocols_responsive()) ++full_signatures_;
    const std::uint32_t index = compact.target - tap_->target_base();
    if (index < target_count_) {
        if (const std::uint64_t sent = tap_->first_send_ns(index); sent != 0) {
            latencies_us_.push_back(static_cast<double>(start - sent) / 1e3);
        }
    }
    if (reference_ != nullptr &&
        (global_index >= reference_->size() || !((*reference_)[global_index] == compact))) {
        ++mismatches_;
    }
    if (next_ != nullptr) next_->accept(global_index, std::move(record));

    if (tracer_ != nullptr) {
        const std::uint64_t end = now_ns();
        busy_ns_ += end - start;
        tracer_->leaf("core.sink", start, end, tracer_->root());
    }
}

void BenchSink::finish() {
    finish_ns_ = now_ns();
    if (next_ != nullptr) next_->finish();
}

}  // namespace lfpbench
