#include "loopback.hpp"

#include <chrono>

#include <pthread.h>
#include <time.h>

#include "alloc_count.hpp"
#include "trace.hpp"

namespace lfpbench {
namespace {

using namespace std::chrono_literals;

lfp::probe::WireConfig loopback_wire() {
    lfp::probe::WireConfig config;  // batched: sendmmsg/recvmmsg + GSO/GRO
    config.source = "127.0.0.1";
    return config;
}

/// Scheduler-to-receiver buffer returns; a full ring frees the buffer.
constexpr std::size_t kRecycleDepth = 4096;

}  // namespace

LoopbackResponder::LoopbackResponder(lfp::sim::ScaleWorldConfig world)
    : sim_(world), wire_(loopback_wire()) {}

LoopbackResponder::~LoopbackResponder() { stop(); }

bool LoopbackResponder::start(lfp::net::IPv4Address prober, std::uint16_t prober_port) {
    if (!wire_.set_peer(prober, prober_port)) return false;
    thread_ = std::thread([this] { loop(); });
    return ::pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_) == 0;
}

void LoopbackResponder::stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    thread_.join();
}

double LoopbackResponder::cpu_s() const noexcept {
    if (!thread_.joinable()) return static_cast<double>(cpu_ns_) / 1e9;
    timespec ts{};
    if (::clock_gettime(cpu_clock_, &ts) != 0) return 0.0;
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void LoopbackResponder::loop() {
    // The responder stands in for the network: its allocations and CPU are
    // the simulator's, and the census metrics leave them out.
    alloc::exclude_this_thread();
    std::vector<lfp::net::Bytes> probes;
    std::vector<lfp::net::Bytes> responses;
    while (!stop_.load(std::memory_order_acquire)) {
        probes.clear();
        if (wire_.receive(5ms, pool_, probes) == 0) continue;
        const std::uint64_t start = now_ns();
        sim_.send_batch(probes);
        sim_.poll_responses_into(0ms, responses);
        sim_ns_ += now_ns() - start;
        const std::uint64_t accepted_before = wire_.counters().packets_sent;
        if (!responses.empty()) wire_.send(responses);
        responses_sent_.store(responses_sent_.load(std::memory_order_relaxed) +
                                  (wire_.counters().packets_sent - accepted_before),
                              std::memory_order_release);
        responses.clear();
        for (lfp::net::Bytes& probe : probes) pool_.release(std::move(probe));
        processed_.store(processed_.load(std::memory_order_relaxed) + probes.size(),
                         std::memory_order_release);
    }
    cpu_ns_ = thread_cpu_ns();
}

LoopbackTransport::LoopbackTransport(LoopbackResponder& responder)
    : responder_(&responder), wire_(loopback_wire()), recycled_(kRecycleDepth) {
    ready_ = responder.ready() && wire_.ready() &&
             wire_.set_peer(responder.address(), responder.port()) &&
             responder.start(wire_.local_address(), wire_.local_port());
}

void LoopbackTransport::send_batch(std::span<const lfp::net::Bytes> packets) {
    wire_.send(packets);
    sent_.store(wire_.counters().packets_sent, std::memory_order_release);
}

std::vector<lfp::net::Bytes> LoopbackTransport::poll_responses(
    std::chrono::milliseconds timeout) {
    std::vector<lfp::net::Bytes> out;
    poll_responses_into(timeout, out);
    return out;
}

void LoopbackTransport::poll_responses_into(std::chrono::milliseconds timeout,
                                            std::vector<lfp::net::Bytes>& out) {
    lfp::net::Bytes returned;
    while (recycled_.try_pop(returned)) pool_.release(std::move(returned));
    received_ += wire_.receive(timeout, pool_, out);
}

void LoopbackTransport::recycle(lfp::net::Bytes&& buffer) {
    recycled_.try_push(std::move(buffer));
}

bool LoopbackTransport::drained() const {
    // Order matters: a probe counts as processed only after its responses
    // were counted as sent, so reading processed() first makes the
    // responses_sent() read cover every processed probe.
    const std::uint64_t sent = sent_.load(std::memory_order_acquire);
    if (responder_->processed() != sent) return false;
    return received_ == responder_->responses_sent();
}

lfp::net::IPv4Address LoopbackTransport::vantage_address() const {
    return responder_->vantage();
}

}  // namespace lfpbench
