#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/log.hpp"
#include "sim/trace.hpp"

namespace sriov::sim {

EventQueue::EventQueue()
{
    Tracer::global().adoptClock(&now_);
}

EventQueue::~EventQueue()
{
    Tracer::global().disownClock(&now_);
}

void
EventQueue::addExecHook(ExecHook *h)
{
    if (h != nullptr
        && std::find(exec_hooks_.begin(), exec_hooks_.end(), h)
               == exec_hooks_.end())
        exec_hooks_.push_back(h);
}

void
EventQueue::removeExecHook(ExecHook *h)
{
    exec_hooks_.erase(
        std::remove(exec_hooks_.begin(), exec_hooks_.end(), h),
        exec_hooks_.end());
}

std::uint32_t
EventQueue::allocSlot()
{
    if (free_head_ != EventHandle::kNone) {
        std::uint32_t idx = free_head_;
        free_head_ = slotRef(idx).next_free;
        return idx;
    }
    if (slot_count_ == kMaxSlots)
        fatal("event queue: %u live events, the most a 16-byte heap key "
              "can address", kMaxSlots);
    if ((slot_count_ & kSlotChunkMask) == 0)
        // Default-init, not make_unique's value-init: the latter
        // zeroes every slot's 80-byte capture buffer (28 KiB per
        // chunk) that the first schedule overwrites anyway.
        slot_chunks_.emplace_back(new Slot[kSlotChunkSize]);
    return slot_count_++;
}

void
EventQueue::freeSlot(Slot &s, std::uint32_t idx)
{
    s.fn.reset();
    s.tag = nullptr;
    s.state = Slot::State::Free;
    ++s.gen;    // stale handles to this slot die here
    s.next_free = free_head_;
    free_head_ = idx;
}

void
EventQueue::heapPush(HeapKey k)
{
    // Percolate a hole up instead of swapping: each level is one
    // 16-byte copy. Scheduling in time order (the common pattern)
    // terminates at the leaf immediately.
    heap_.push_back(k);
    const u128 kb = keyBits(k);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        std::size_t p = (i - 1) >> 2;
        if (!(kb < keyBits(heap_[p])))
            break;
        heap_[i] = heap_[p];
        i = p;
    }
    heap_[i] = k;
}

void
EventQueue::siftDown(std::size_t i, HeapKey k)
{
    // 4-ary sift-down: half the levels of a binary heap and all four
    // children share a pair of cache lines. The heap is small (about
    // a hundred keys on the scale runs), so the cost is not memory but
    // branches: many events share an instant, so whether two due
    // times tie is a coin flip, and a (when, then seq) comparison that
    // jumps on it mispredicts at every level. The full fan-out case
    // compares whole 128-bit keys instead: min(c, c+1) and
    // min(c+2, c+3), then the smaller of those, all with conditional
    // moves; only the "keep sifting" test is a branch.
    HeapKey *h = heap_.data();
    const std::size_t n = heap_.size();
    const u128 kb = keyBits(k);
    for (;;) {
        std::size_t c = 4 * i + 1;
        std::size_t m;
        u128 mb;
        if (c + 4 <= n) {
            u128 b0 = keyBits(h[c]), b1 = keyBits(h[c + 1]);
            u128 b2 = keyBits(h[c + 2]), b3 = keyBits(h[c + 3]);
            bool lo = b1 < b0, hi = b3 < b2;
            u128 m01 = lo ? b1 : b0, m23 = hi ? b3 : b2;
            std::size_t i01 = c + lo, i23 = c + 2 + hi;
            bool right = m23 < m01;
            mb = right ? m23 : m01;
            // A mask, not a ternary: GCC turns the latter into a jump.
            m = i01 ^ ((i01 ^ i23) & -std::size_t(right));
        } else if (c < n) {
            m = c;
            mb = keyBits(h[c]);
            for (std::size_t j = c + 1; j < n; ++j) {
                u128 b = keyBits(h[j]);
                bool lt = b < mb;
                mb = lt ? b : mb;
                m = lt ? j : m;
            }
        } else {
            break;
        }
        if (!(mb < kb))
            break;
        // Store the selected value, not a reload of h[m]: the load
        // would wait on the index select.
        h[i] = HeapKey{std::uint64_t(mb >> 64), std::uint64_t(mb)};
        i = m;
    }
    h[i] = k;
}

void
EventQueue::heapRemoveTop()
{
    HeapKey last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0, last);
}

EventQueue::PreparedEvent
EventQueue::prepareEvent(Time when, const char *tag)
{
    if (when < now_) {
        if (observer_ == nullptr)
            panic("event scheduled in the past: %s < %s",
                  when.toString().c_str(), now_.toString().c_str());
        observer_->onSchedulePast(when, now_);
        when = now_;
    }
    if (next_seq_ == kMaxSeq)
        fatal("event queue: %llu events scheduled, the most a 16-byte "
              "heap key can order",
              static_cast<unsigned long long>(kMaxSeq - 1));
    std::uint64_t seq = next_seq_++;
    std::uint32_t idx = allocSlot();
    Slot &s = slotRef(idx);
    s.tag = tag;
    s.state = Slot::State::Pending;
    heapPush(makeKey(when, seq, idx));
    ++live_events_;
    return PreparedEvent{&s, EventHandle(idx, s.gen)};
}

void
EventQueue::cancel(EventHandle &h)
{
    // Only still-pending events count as cancelled; stale handles
    // (already fired, slot possibly reused under a new generation)
    // must be a no-op — scale experiments cancel throttle timers for
    // hours of simulated time.
    if (h.valid() && h.slot_ < slot_count_) {
        Slot &s = slotRef(h.slot_);
        if (s.state == Slot::State::Pending && s.gen == h.gen_) {
            s.state = Slot::State::Cancelled;
            s.fn.reset();    // release captures (and pool blocks) now
            --live_events_;
            ++cancelled_pending_;
        }
    }
    h.clear();
}

void
EventQueue::purgeCancelledTop()
{
    // With no cancellations outstanding every heap key is live; skip
    // the per-event slot-state probe entirely (the common case).
    if (cancelled_pending_ == 0)
        return;
    while (!heap_.empty()) {
        std::uint32_t idx = keySlot(heap_[0]);
        Slot &s = slotRef(idx);
        if (s.state != Slot::State::Cancelled)
            break;
        heapRemoveTop();
        freeSlot(s, idx);
        --cancelled_pending_;
    }
}

namespace {

std::size_t
foldSlot(const char *tag, std::size_t mask)
{
    // Fibonacci hashing: the product's upper half mixes every
    // pointer bit.
    return std::size_t((std::uint64_t(reinterpret_cast<std::uintptr_t>(tag))
                        * 0x9e3779b97f4a7c15ull)
                       >> 32)
           & mask;
}

} // namespace

const EventQueue::TagFold &
EventQueue::tagFold(const char *tag)
{
    const std::size_t mask = fold_index_.size() - 1;
    for (std::size_t i = foldSlot(tag, mask);; i = (i + 1) & mask) {
        const FoldRef &r = fold_index_[i];
        if (r.tag == tag)
            return *r.fold;
        if (r.tag == nullptr)
            return addTagFold(tag);
    }
}

const EventQueue::TagFold &
EventQueue::addTagFold(const char *tag)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ull;
    auto tf = std::make_unique<TagFold>();
    std::uint64_t pow = 1;
    for (const char *p = tag; *p != '\0'; ++p)
        pow *= kPrime;
    tf->pow = pow;
    // The byte-wise FNV-1a fold d -> (d ^ b) * kPrime mod 2^64 is
    // affine in d once the trajectory of d's low byte is fixed, and
    // that trajectory depends only on the initial low byte: XOR with
    // an 8-bit value touches only the low byte, and the low byte of a
    // product mod 2^64 depends only on the low bytes of its factors.
    // So folding a whole tag collapses to
    //   d' = d * kPrime^len + add[d & 0xff]
    // with a 256-entry table per tag. Identical bit-for-bit to the
    // byte loop (pinned by SimDigest tests).
    for (std::uint32_t lo = 0; lo < 256; ++lo) {
        std::uint64_t d = lo;
        for (const char *p = tag; *p != '\0'; ++p) {
            d ^= std::uint64_t(static_cast<unsigned char>(*p));
            d *= kPrime;
        }
        tf->add[lo] = d - lo * pow;
    }
    tag_folds_.push_back(std::move(tf));
    auto insert = [this](FoldRef r) {
        const std::size_t mask = fold_index_.size() - 1;
        std::size_t i = foldSlot(r.tag, mask);
        while (fold_index_[i].tag != nullptr)
            i = (i + 1) & mask;
        fold_index_[i] = r;
    };
    // Rebuild the index at twice the size once it would pass half full.
    if (2 * tag_folds_.size() > fold_index_.size()) {
        std::vector<FoldRef> old = std::move(fold_index_);
        fold_index_.assign(old.size() * 2, FoldRef{});
        for (const FoldRef &r : old)
            if (r.tag != nullptr)
                insert(r);
    }
    insert(FoldRef{tag, tag_folds_.back().get()});
    return *tag_folds_.back();
}

void
EventQueue::foldDigest(Time when, std::uint64_t seq, const char *tag)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ull;
    auto fold = [this](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            digest_ ^= (v >> (8 * i)) & 0xff;
            digest_ *= kPrime;
        }
    };
    fold(std::uint64_t(when.picos()));
    fold(seq);
    if (tag == nullptr || *tag == '\0')
        return;
    const TagFold &tf = tagFold(tag);
    digest_ = digest_ * tf.pow + tf.add[digest_ & 0xff];
}

void
EventQueue::executeTop()
{
    const Time when = keyTime(heap_[0]);
    const std::uint64_t seq = keySeq(heap_[0]);
    const std::uint32_t idx = keySlot(heap_[0]);
    heapRemoveTop();
    // Chunked slot storage never relocates, so the callback runs in
    // place — no per-event move even when it schedules more events.
    // Running state makes a self-cancel from inside the callback a
    // no-op (the event has already fired).
    Slot &s = slotRef(idx);
    const char *tag = s.tag;
    s.state = Slot::State::Running;
    --live_events_;
    if (observer_ != nullptr)
        observer_->onExecute(when, now_, seq, tag);
    now_ = when;
    ++executed_;
    foldDigest(when, seq, tag);
    if (!exec_hooks_.empty()) {
        // Iterate by index: the callback (or a hook) may add or remove
        // hooks mid-event, e.g. a tracer detaching at a record limit.
        for (std::size_t i = 0; i < exec_hooks_.size(); ++i)
            exec_hooks_[i]->onEventStart(when, seq, tag);
        s.fn();
        for (std::size_t i = 0; i < exec_hooks_.size(); ++i)
            exec_hooks_[i]->onEventEnd(when, seq, tag);
    } else {
        s.fn();
    }
    freeSlot(s, idx);
}

std::uint64_t
EventQueue::runUntil(Time deadline)
{
    // Single purge point per iteration: the purge both exposes the
    // next live event for the deadline check and establishes
    // executeTop()'s precondition.
    Time prev_deadline = run_deadline_;
    run_deadline_ = deadline;
    std::uint64_t n = 0;
    for (purgeCancelledTop();
         !heap_.empty() && keyTime(heap_[0]) <= deadline;
         purgeCancelledTop()) {
        executeTop();
        ++n;
    }
    if (now_ < deadline)
        now_ = deadline;
    run_deadline_ = prev_deadline;
    return n;
}

void
EventQueue::snapshotPending(std::vector<PendingEvent> &out) const
{
    out.clear();
    out.reserve(heap_.size());
    for (std::uint32_t i = 0; i < heap_.size(); ++i) {
        const HeapKey &k = heap_[i];
        const Slot &s = slotRef(keySlot(k));
        if (s.state != Slot::State::Pending)
            continue;
        out.push_back(PendingEvent{keyTime(k), keySeq(k), s.tag, i});
    }
}

void
EventQueue::heapRebuild()
{
    // Bottom-up 4-ary heapify; cold path (once per fluid warp).
    if (heap_.size() < 2)
        return;
    for (std::size_t r = (heap_.size() - 2) / 4 + 1; r-- > 0;)
        siftDown(r, heap_[r]);
}

void
EventQueue::fluidWarp(Time delta,
                      const std::vector<std::uint32_t> &shift_keys)
{
    if (delta < Time())
        panic("fluid warp backwards");
    for (std::uint32_t idx : shift_keys) {
        if (idx >= heap_.size())
            panic("fluid warp: stale heap index");
        // Biased unsigned addition wraps exactly like signed picos.
        heap_[idx].when += std::uint64_t(delta.picos());
    }
    now_ += delta;
    heapRebuild();
    // A cancelled key left behind is dead, not an event in the past.
    purgeCancelledTop();
    if (!heap_.empty() && keyTime(heap_[0]) < now_)
        panic("fluid warp left an absolute event in the past: %s < %s",
              keyTime(heap_[0]).toString().c_str(),
              now_.toString().c_str());
}

Time
EventQueue::nextEventTime()
{
    purgeCancelledTop();
    return heap_.empty() ? Time::max() : keyTime(heap_[0]);
}

std::uint64_t
EventQueue::runBefore(Time bound)
{
    std::uint64_t n = 0;
    for (purgeCancelledTop();
         !heap_.empty() && keyTime(heap_[0]) < bound;
         purgeCancelledTop()) {
        executeTop();
        ++n;
    }
    return n;
}

void
EventQueue::advanceTo(Time t)
{
    if (t < now_)
        panic("event queue: advanceTo into the past");
    now_ = t;
}

std::uint64_t
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events) {
        purgeCancelledTop();
        if (heap_.empty())
            break;
        executeTop();
        ++n;
    }
    return n;
}

} // namespace sriov::sim
