// Heap-allocation counting for the benchmark binary. alloc_count.cpp
// replaces the global operator new/delete; every allocation bumps a counter
// in a slot owned by the allocating thread (claimed once per thread, written
// only by that thread), so the hot path is a thread-local load and a plain
// increment — no shared atomic, no string compare. Per-stage buckets keyed
// by the library's util::t_alloc_stage tag are filled only after
// enable_stage_buckets(), which the traced run turns on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace lfpbench::alloc {

/// The stage tags the library sets (util/alloc_trace.hpp), in bucket order;
/// bucket kStageCount collects untagged allocations.
inline constexpr std::array<const char*, 7> kStageNames = {
    "lane", "admit", "dispatch", "recv", "sim", "assemble", "sink"};
inline constexpr std::size_t kStageCount = kStageNames.size();

struct Totals {
    std::uint64_t total = 0;
    std::array<std::uint64_t, kStageCount + 1> stage{};
};

/// Turns on per-stage buckets. Call before the threads being measured start.
void enable_stage_buckets() noexcept;

/// Leaves the calling thread's allocations out of every later snapshot()
/// (the loopback responder: its allocations belong to the simulator that
/// stands in for the network, not to the census engine).
void exclude_this_thread() noexcept;

/// Allocations so far by every thread not excluded. Exact for threads that
/// have exited or synchronised with the caller (joined, or finished a task
/// the caller waited for).
[[nodiscard]] Totals snapshot() noexcept;

}  // namespace lfpbench::alloc
