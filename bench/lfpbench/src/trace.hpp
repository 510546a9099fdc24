// Span recording for the traced run. Spans are recorded from the
// benchmark's own files, around its calls into each layer (the transport
// tap, the sink, the census and serve phases); nothing inside the library
// is instrumented. Each span carries a name, start, end, parent and thread.
// They go into a buffer reserved up front and capped at kSpanCap; the
// per-layer aggregates the report uses are kept by the callers and are not
// capped. write_chrome_json() emits Chrome trace-event JSON plus each
// layer's self time (its duration minus its same-thread children).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lfpbench {

/// steady_clock nanoseconds (never 0 on Linux: the epoch is boot).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// CPU time of the calling thread, in nanoseconds.
[[nodiscard]] std::uint64_t thread_cpu_ns() noexcept;

/// A small stable id for the calling thread (its kernel tid).
[[nodiscard]] std::uint32_t thread_id() noexcept;

class Tracer {
  public:
    static constexpr std::size_t kSpanCap = 200'000;
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    Tracer();

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Opens a span on the calling thread. Its slot is claimed now, so a
    /// parent is kept even when leaves later fill the buffer. Returns kNone
    /// when the buffer is already full.
    std::uint32_t open(const char* name, std::uint32_t parent = kNone);
    void close(std::uint32_t id);

    /// Records a finished span (a leaf: send, poll, sink accept).
    void leaf(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint32_t parent);

    /// The span that cross-thread leaves (lane sends, receive polls) hang
    /// under: the census span of the current workload phase.
    void set_root(std::uint32_t id) noexcept { root_.store(id, std::memory_order_release); }
    [[nodiscard]] std::uint32_t root() const noexcept {
        return root_.load(std::memory_order_acquire);
    }

    /// Spans that did not fit in the buffer.
    [[nodiscard]] std::uint64_t dropped() const noexcept;

    /// Writes every recorded span as a Chrome trace-event "X" event. Call
    /// after all recording threads have stopped. Returns false on I/O error.
    [[nodiscard]] bool write_chrome_json(const std::string& path) const;

  private:
    struct Span {
        const char* name = nullptr;
        std::uint64_t start = 0;
        std::uint64_t end = 0;
        std::uint32_t parent = kNone;
        std::uint32_t thread = 0;
    };

    std::uint32_t claim();

    std::vector<Span> spans_;
    std::atomic<std::uint64_t> next_{0};
    std::atomic<std::uint32_t> root_{kNone};
};

}  // namespace lfpbench
