#include "alloc_count.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "util/alloc_trace.hpp"

namespace lfpbench::alloc {
namespace {

struct Slot {
    std::atomic<std::uint64_t> total{0};
    std::array<std::atomic<std::uint64_t>, kStageCount + 1> stage{};
    std::atomic<bool> excluded{false};
};

/// One slot per thread the process ever starts; threads past the table
/// share g_shared, whose counters take atomic read-modify-writes.
constexpr std::size_t kSlots = 1024;
Slot g_slots[kSlots];
Slot g_shared;
std::atomic<std::size_t> g_claimed{0};
std::atomic<bool> g_stage_buckets{false};

thread_local Slot* t_slot = nullptr;
/// Last stage tag seen by this thread and its bucket: tags are string
/// literals set once per region, so the compare runs once per region entry.
thread_local const char* t_tag = nullptr;
thread_local std::size_t t_tag_bucket = kStageCount;

Slot& my_slot() noexcept {
    if (t_slot == nullptr) {
        const std::size_t index = g_claimed.fetch_add(1, std::memory_order_relaxed);
        t_slot = index < kSlots ? &g_slots[index] : &g_shared;
    }
    return *t_slot;
}

void bump(const Slot& slot, std::atomic<std::uint64_t>& counter) noexcept {
    if (&slot == &g_shared) {
        counter.fetch_add(1, std::memory_order_relaxed);
    } else {
        counter.store(counter.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    }
}

std::size_t bucket_of(const char* tag) noexcept {
    if (tag == t_tag) return t_tag_bucket;
    std::size_t bucket = kStageCount;
    if (tag != nullptr) {
        for (std::size_t i = 0; i < kStageCount && bucket == kStageCount; ++i) {
            if (std::strcmp(tag, kStageNames[i]) == 0) bucket = i;
        }
    }
    t_tag = tag;
    t_tag_bucket = bucket;
    return bucket;
}

void count() noexcept {
    Slot& slot = my_slot();
    bump(slot, slot.total);
    if (g_stage_buckets.load(std::memory_order_relaxed)) {
        bump(slot, slot.stage[bucket_of(lfp::util::t_alloc_stage)]);
    }
}

void* allocate(std::size_t size) {
    count();
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;
    throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
    count();
    const auto alignment = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    if (void* p = std::aligned_alloc(alignment, rounded != 0 ? rounded : alignment)) return p;
    throw std::bad_alloc();
}

}  // namespace

void enable_stage_buckets() noexcept {
    g_stage_buckets.store(true, std::memory_order_relaxed);
}

void exclude_this_thread() noexcept {
    my_slot().excluded.store(true, std::memory_order_relaxed);
}

Totals snapshot() noexcept {
    Totals totals;
    const std::size_t claimed =
        std::min(g_claimed.load(std::memory_order_acquire), kSlots);
    auto add = [&totals](const Slot& slot) {
        if (slot.excluded.load(std::memory_order_relaxed)) return;
        totals.total += slot.total.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i <= kStageCount; ++i) {
            totals.stage[i] += slot.stage[i].load(std::memory_order_relaxed);
        }
    };
    for (std::size_t i = 0; i < claimed; ++i) add(g_slots[i]);
    add(g_shared);
    return totals;
}

}  // namespace lfpbench::alloc

using lfpbench::alloc::allocate;
using lfpbench::alloc::allocate_aligned;

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
    return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
    return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return allocate_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
