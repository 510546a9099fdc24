#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string_view>

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

namespace lfpbench {

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

std::uint64_t thread_cpu_ns() noexcept {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint32_t thread_id() noexcept {
    thread_local const auto tid = static_cast<std::uint32_t>(::syscall(SYS_gettid));
    return tid;
}

Tracer::Tracer() : spans_(kSpanCap) {}

std::uint32_t Tracer::claim() {
    const std::uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
    return index < kSpanCap ? static_cast<std::uint32_t>(index) : kNone;
}

std::uint32_t Tracer::open(const char* name, std::uint32_t parent) {
    const std::uint32_t id = claim();
    if (id != kNone) spans_[id] = Span{name, now_ns(), 0, parent, thread_id()};
    return id;
}

void Tracer::close(std::uint32_t id) {
    if (id != kNone) spans_[id].end = now_ns();
}

void Tracer::leaf(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                  std::uint32_t parent) {
    const std::uint32_t id = claim();
    if (id != kNone) spans_[id] = Span{name, start_ns, end_ns, parent, thread_id()};
}

std::uint64_t Tracer::dropped() const noexcept {
    const std::uint64_t claimed = next_.load(std::memory_order_relaxed);
    return claimed > kSpanCap ? claimed - kSpanCap : 0;
}

bool Tracer::write_chrome_json(const std::string& path) const {
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(next_.load(), kSpanCap));
    // A span opened but never closed (a phase that threw) is left out.
    auto complete = [this](std::size_t i) { return spans_[i].end >= spans_[i].start &&
                                                   spans_[i].end != 0; };

    std::vector<std::uint64_t> child_ns(count, 0);
    std::uint64_t origin = ~std::uint64_t{0};
    for (std::size_t i = 0; i < count; ++i) {
        if (!complete(i)) continue;
        origin = std::min(origin, spans_[i].start);
        const std::uint32_t parent = spans_[i].parent;
        if (parent != kNone && parent < count && spans_[parent].thread == spans_[i].thread) {
            child_ns[parent] += spans_[i].end - spans_[i].start;
        }
    }

    struct Layer {
        std::uint64_t count = 0;
        std::uint64_t total_ns = 0;
        std::uint64_t self_ns = 0;
    };
    std::map<std::string_view, Layer> layers;

    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    bool first = true;
    for (std::size_t i = 0; i < count; ++i) {
        if (!complete(i)) continue;
        const Span& span = spans_[i];
        const std::uint64_t duration = span.end - span.start;
        Layer& layer = layers[span.name];
        ++layer.count;
        layer.total_ns += duration;
        layer.self_ns += duration > child_ns[i] ? duration - child_ns[i] : 0;
        std::fprintf(out,
                     "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %lld}}",
                     first ? "" : ",", span.name, span.thread,
                     static_cast<double>(span.start - origin) / 1e3,
                     static_cast<double>(duration) / 1e3, i,
                     span.parent == kNone ? -1LL : static_cast<long long>(span.parent));
        first = false;
    }
    std::fprintf(out, "\n], \"otherData\": {\"dropped\": %llu, \"layers\": {",
                 static_cast<unsigned long long>(dropped()));
    first = true;
    for (const auto& [name, layer] : layers) {
        std::fprintf(out,
                     "%s\"%.*s\": {\"count\": %llu, \"total_us\": %.3f, \"self_us\": %.3f}",
                     first ? "" : ", ", static_cast<int>(name.size()), name.data(),
                     static_cast<unsigned long long>(layer.count),
                     static_cast<double>(layer.total_ns) / 1e3,
                     static_cast<double>(layer.self_ns) / 1e3);
        first = false;
    }
    std::fprintf(out, "}}}\n");
    return std::fclose(out) == 0;
}

}  // namespace lfpbench
