/**
 * @file
 * SlotRing: a FIFO of recycled fixed-size slots.
 *
 * The serving stack keeps three sequential stores that push at the back
 * and pop at the front: a replica's ticket -> result store, the
 * cluster's pending-ticket store, and the admission controller's
 * per-tier lanes. A SlotRing holds their slots in fixed-size chunks
 * whose pointers sit in an index that is itself a ring. A chunk whose
 * last slot pops stays in its index entry as a spare, and the back
 * reuses it when the ring wraps around to that entry, so a store whose
 * size stays bounded stops allocating once it has seen its high-water
 * mark. The index only grows (doubling, when every entry holds a live
 * chunk), and growing copies chunk pointers, never slots: a store that
 * holds 50k entries until a drain moves none of them.
 *
 * Every push gets the next sequence number (the n-th push ever is
 * sequence n), so a ticket store issues tickets as sequences and finds
 * a ticket's slot at index `ticket - front_seq()`. pop_front resets the
 * slot to T{}, so no stale value survives its pop.
 *
 * Not thread-safe: the owning store's lock guards it.
 */
#ifndef FLEXNERFER_COMMON_SLOT_RING_H_
#define FLEXNERFER_COMMON_SLOT_RING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace flexnerfer {

template <typename T>
class SlotRing
{
  public:
    /** Slots per chunk: one allocation covers this many pushes. */
    static constexpr std::size_t kChunkSlots = 64;

    SlotRing() = default;
    SlotRing(const SlotRing&) = delete;
    SlotRing& operator=(const SlotRing&) = delete;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Sequence of the front slot (= slots popped so far). */
    std::uint64_t front_seq() const { return popped_; }
    /** Sequence the next push_back gets. */
    std::uint64_t end_seq() const { return popped_ + size_; }
    /** Chunks allocated so far, live and spare. */
    std::size_t chunks() const { return allocated_; }

    /** The @p i-th slot from the front (@p i < size()). */
    T&
    operator[](std::size_t i)
    {
        const std::size_t at = head_ + i;
        return index_[(first_ + at / kChunkSlots) & (index_.size() - 1)]
                     [at % kChunkSlots];
    }
    const T&
    operator[](std::size_t i) const
    {
        return const_cast<SlotRing&>(*this)[i];
    }
    T& front() { return (*this)[0]; }

    /** Appends a slot holding T{} and returns it. */
    T&
    push_back()
    {
        if (head_ + size_ == live_ * kChunkSlots) AddChunk();
        return (*this)[size_++];
    }

    /** Resets the front slot to T{} and drops it. */
    void
    pop_front()
    {
        front() = T{};
        ++popped_;
        --size_;
        if (++head_ == kChunkSlots) {
            // The front chunk is empty: it stays in its index entry as
            // the spare the back takes when the ring wraps round to it.
            head_ = 0;
            first_ = (first_ + 1) & (index_.size() - 1);
            --live_;
        }
    }

  private:
    /** Makes the entry past the last live chunk live: its spare if it
     *  holds one, else a fresh chunk, doubling the index when every
     *  entry is live. */
    void
    AddChunk()
    {
        if (live_ == index_.size()) {
            std::vector<std::unique_ptr<T[]>> grown(
                index_.empty() ? 1 : 2 * index_.size());
            for (std::size_t c = 0; c < live_; ++c) {
                grown[c] = std::move(index_[(first_ + c) & (live_ - 1)]);
            }
            index_.swap(grown);
            first_ = 0;
        }
        std::unique_ptr<T[]>& chunk =
            index_[(first_ + live_) & (index_.size() - 1)];
        if (chunk == nullptr) {
            chunk.reset(new T[kChunkSlots]());
            ++allocated_;
        }
        ++live_;
    }

    /** Chunk pointers; the size is a power of two (or 0). */
    std::vector<std::unique_ptr<T[]>> index_;
    std::size_t first_ = 0;  //!< index entry of the front chunk
    std::size_t live_ = 0;   //!< chunks holding the slots in use
    std::size_t head_ = 0;   //!< front slot's offset in the front chunk
    std::size_t size_ = 0;
    std::uint64_t popped_ = 0;
    std::size_t allocated_ = 0;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_COMMON_SLOT_RING_H_
