#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace localut {

namespace {

class SerialTiles final : public TileExecutor
{
  public:
    unsigned concurrency() const override { return 1; }

    void
    run(std::size_t tiles,
        const std::function<void(std::size_t)>& fn) const override
    {
        for (std::size_t i = 0; i < tiles; ++i) {
            fn(i);
        }
    }
};

/**
 * The pool a thread is currently draining a tile of (null when not
 * inside a tile).  A nested run() on the same pool must not re-enter
 * the submission path: the historical single-slot design self-deadlocked
 * on the submit mutex, and even queue-based submission would have the
 * nested batch compete with the batch this thread is mid-tile in.
 * Inline draining is deadlock-free and keeps the fixed per-element
 * accumulation order (tiles are order-independent by contract).
 */
thread_local const TilePool* tlDrainingPool = nullptr;

struct DrainScope {
    const TilePool* previous;

    explicit DrainScope(const TilePool* pool) : previous(tlDrainingPool)
    {
        tlDrainingPool = pool;
    }
    ~DrainScope() { tlDrainingPool = previous; }
};

} // namespace

const TileExecutor&
serialTiles()
{
    static const SerialTiles executor;
    return executor;
}

std::size_t
claimChunkFor(std::size_t tiles, unsigned participants)
{
    if (participants <= 1) {
        return std::max<std::size_t>(tiles, 1);
    }
    // At least 4 claims per participant keeps stragglers from holding a
    // quarter of the batch; the max() keeps tiny batches at 1 tile per
    // claim (they need every hand).
    return std::max<std::size_t>(
        1, tiles / (static_cast<std::size_t>(participants) * 4));
}

bool
TileBatch::drain()
{
    bool last = false;
    const std::size_t chunk = std::max<std::size_t>(1, claimChunk);
    for (;;) {
        const std::size_t begin = next.fetch_add(chunk,
                                                 std::memory_order_relaxed);
        if (begin >= count) {
            return last;
        }
        const std::size_t end = std::min(count, begin + chunk);
        for (std::size_t i = begin; i < end; ++i) {
            try {
                (*fn)(i);
            } catch (...) {
                // Deterministic first-error-wins: the lowest-indexed
                // failing tile's exception survives, independent of
                // thread interleaving.
                std::lock_guard<std::mutex> lock(errorMutex);
                if (i < errorTile) {
                    errorTile = i;
                    error = std::current_exception();
                }
            }
        }
        // Retirement is counted per chunk, OUTSIDE the try block: a
        // throwing tile still retires, so the settlement wait (and the
        // doneCv_ notify chained off `last`) can never be lost to the
        // throw path.
        last = done.fetch_add(end - begin, std::memory_order_acq_rel) +
                   (end - begin) ==
               count;
    }
}

bool
TileBatch::settled() const
{
    return done.load(std::memory_order_acquire) >= count;
}

bool
TileBatch::fullyClaimed() const
{
    return next.load(std::memory_order_relaxed) >= count;
}

void
TileBatch::rethrowIfError()
{
    // Take the exception out of the batch first: a worker may still hold
    // the batch after settlement, and if it dropped the last reference
    // it would free the exception while the caller's handler reads it.
    // The hand-off is ordered by the runtime's reference count, which
    // sits in uninstrumented code that ThreadSanitizer cannot see.
    if (error) {
        std::rethrow_exception(std::exchange(error, nullptr));
    }
}

TilePool::TilePool(unsigned threads)
{
    if (threads == 0) {
        threads = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

TilePool::~TilePool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

unsigned
TilePool::concurrency() const
{
    return static_cast<unsigned>(workers_.size());
}

std::size_t
TilePool::inFlightBatches() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void
TilePool::retireLocked(const std::shared_ptr<TileBatch>& batch) const
{
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == batch) {
            queue_.erase(it);
            return;
        }
    }
}

void
TilePool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_) {
                return;
            }
            continue;
        }
        const std::shared_ptr<TileBatch> batch = queue_.front();
        if (batch->fullyClaimed()) {
            // Nothing left to claim here; unblock the queue for the
            // next batch (its submitter still waits on settlement, not
            // on queue membership) and look again.
            queue_.pop_front();
            continue;
        }
        lock.unlock();
        bool last;
        {
            DrainScope scope(this);
            last = batch->drain();
        }
        lock.lock();
        retireLocked(batch);
        if (last) {
            doneCv_.notify_all();
        }
    }
}

void
TilePool::run(std::size_t tiles,
              const std::function<void(std::size_t)>& fn) const
{
    if (tiles == 0) {
        return;
    }
    if (tiles == 1 || workers_.empty() || tlDrainingPool == this) {
        // Serial shapes, a poolless pool, and NESTED submissions (a
        // tile closure re-entering the pool it is already draining a
        // tile of) all drain inline: the nested case historically
        // deadlocked on the pool's submission state.
        serialTiles().run(tiles, fn);
        return;
    }
    auto batch = std::make_shared<TileBatch>();
    batch->fn = &fn;
    batch->count = tiles;
    batch->claimChunk =
        claimChunkFor(tiles, static_cast<unsigned>(workers_.size()) + 1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(batch);
    }
    workCv_.notify_all();
    // The submitter participates: with no free worker the batch still
    // completes on this thread alone.
    bool last;
    {
        DrainScope scope(this);
        last = batch->drain();
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        retireLocked(batch);
        if (last) {
            doneCv_.notify_all();
        }
        doneCv_.wait(lock, [&batch] { return batch->settled(); });
    }
    batch->rethrowIfError();
}

} // namespace localut
