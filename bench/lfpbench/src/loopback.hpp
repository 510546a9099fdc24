// A census over real loopback sockets. The prober side, LoopbackTransport,
// is a ProbeTransport whose packets cross the kernel through a
// DgramWireBackend (sendmmsg/recvmmsg with GSO/GRO) as UDP payloads. The
// far side, LoopbackResponder, is a thread with its own DgramWireBackend
// that feeds each received probe to a sim::ScaleTransport and sends the
// responses back. Both ends count what they moved, which makes drained() an
// exact closed-world proof: it is true only when the responder has
// processed every probe the prober sent and the prober has received every
// response the responder sent. A packet the kernel drops keeps drained()
// false forever, so the engine falls back to its response timeout — slower,
// never wrong.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

#include "probe/transport.hpp"
#include "probe/wire.hpp"
#include "sim/scale_world.hpp"
#include "util/arena.hpp"
#include "util/spsc_ring.hpp"

namespace lfpbench {

class LoopbackResponder {
  public:
    explicit LoopbackResponder(lfp::sim::ScaleWorldConfig world);
    ~LoopbackResponder();

    LoopbackResponder(const LoopbackResponder&) = delete;
    LoopbackResponder& operator=(const LoopbackResponder&) = delete;

    [[nodiscard]] bool ready() const noexcept { return wire_.ready(); }
    [[nodiscard]] const std::string& status() const noexcept { return wire_.status(); }

    /// Points the responder at the prober's socket and starts its thread.
    bool start(lfp::net::IPv4Address prober, std::uint16_t prober_port);
    /// Stops and joins the thread (idempotent).
    void stop();

    [[nodiscard]] lfp::net::IPv4Address address() const noexcept {
        return wire_.local_address();
    }
    [[nodiscard]] std::uint16_t port() const noexcept { return wire_.local_port(); }
    /// The simulated world's vantage: probes must carry it as their source
    /// for the responses to match an in-process census byte for byte.
    [[nodiscard]] lfp::net::IPv4Address vantage() const { return sim_.vantage_address(); }

    /// Probes fully handled (their responses already sent), and responses
    /// the kernel accepted; published in that order.
    [[nodiscard]] std::uint64_t processed() const noexcept {
        return processed_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::uint64_t responses_sent() const noexcept {
        return responses_sent_.load(std::memory_order_acquire);
    }

    /// CPU seconds of the responder thread so far (live while it runs).
    [[nodiscard]] double cpu_s() const noexcept;
    /// Valid after stop().
    [[nodiscard]] double sim_s() const noexcept { return static_cast<double>(sim_ns_) / 1e9; }
    [[nodiscard]] std::uint64_t sim_packets() const noexcept { return sim_.packets_seen(); }
    [[nodiscard]] const lfp::probe::WireBackend::Counters& wire_counters() const noexcept {
        return wire_.counters();
    }

  private:
    void loop();

    lfp::sim::ScaleTransport sim_;
    lfp::probe::DgramWireBackend wire_;
    lfp::util::BufferPool pool_;
    std::atomic<std::uint64_t> processed_{0};
    std::atomic<std::uint64_t> responses_sent_{0};
    std::atomic<bool> stop_{false};
    std::uint64_t cpu_ns_ = 0;  ///< written by the thread, read after join
    std::uint64_t sim_ns_ = 0;
    clockid_t cpu_clock_{};     ///< the running thread's CPU clock
    std::thread thread_;
};

class LoopbackTransport final : public lfp::probe::ProbeTransport {
  public:
    /// Opens the prober socket, connects it and `responder` to each other,
    /// and starts the responder. Check ready() before use.
    explicit LoopbackTransport(LoopbackResponder& responder);

    [[nodiscard]] bool ready() const noexcept { return ready_; }
    [[nodiscard]] const lfp::probe::DgramWireBackend& wire() const noexcept { return wire_; }

    void send_batch(std::span<const lfp::net::Bytes> packets) override;
    std::vector<lfp::net::Bytes> poll_responses(std::chrono::milliseconds timeout) override;
    void poll_responses_into(std::chrono::milliseconds timeout,
                             std::vector<lfp::net::Bytes>& out) override;
    void recycle(lfp::net::Bytes&& buffer) override;
    [[nodiscard]] bool drained() const override;
    [[nodiscard]] lfp::net::IPv4Address vantage_address() const override;

  private:
    LoopbackResponder* responder_;
    lfp::probe::DgramWireBackend wire_;
    bool ready_ = false;
    /// Packets the kernel accepted from send_batch (sender thread writes).
    std::atomic<std::uint64_t> sent_{0};
    /// Responses handed to the engine (receive thread only).
    std::uint64_t received_ = 0;
    lfp::util::BufferPool pool_;                    ///< receive thread only
    lfp::util::SpscRing<lfp::net::Bytes> recycled_;  ///< scheduler -> receiver
};

}  // namespace lfpbench
