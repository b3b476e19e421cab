#ifndef LOCALUT_COMMON_PARALLEL_H_
#define LOCALUT_COMMON_PARALLEL_H_

/**
 * @file
 * Tile-execution abstraction for the functional GEMM engine
 * (kernels/exec_engine.h).  A kernel splits its output into disjoint
 * tiles and hands the per-tile closure to a TileExecutor; where the
 * tiles actually run is the executor's business:
 *
 *  - serialTiles() runs them inline on the calling thread (the default
 *    and the zero-allocation steady-state path);
 *  - TilePool owns a persistent worker pool (benches, tests);
 *  - InferenceSession implements the interface on its own request
 *    worker pool, so GEMM tiles and serving requests share threads
 *    instead of oversubscribing the machine.
 *
 * Tiles write disjoint output ranges and read shared state only, so any
 * executor yields bit-identical results regardless of scheduling; the
 * contract is merely "invoke fn(0..tiles-1) exactly once each and
 * return when all have finished".
 *
 * Scaling model (why the batch looks the way it does):
 *
 *  - `next` and `done` live on their own cache lines.  Packed together
 *    (with the error mutex on top), every claim invalidated every
 *    retirement counter read across all participants — measurable
 *    false sharing once tiles get small.
 *  - Claims are CHUNKED: one fetch_add hands out `claimChunk` tiles,
 *    sized so the whole batch still splits into several chunks per
 *    participant (load balance) while fine-grained batches stop
 *    hammering the claim counter once per tile.
 *  - A TilePool holds a QUEUE of in-flight batches, not a single slot
 *    guarded by a submit mutex.  Concurrent submitters (per-rank
 *    session queues all fanning tiles at once) previously degraded to
 *    lockstep — each waited for the previous batch to fully settle
 *    before its own could start claiming.  Now a fully-claimed batch
 *    is popped so workers flow into the next one while the last tiles
 *    of the previous batch finish.
 *  - A tile closure that re-enters run() on the executor it is already
 *    draining (nested GEMM, a workload node executing inside a tile)
 *    is detected via a thread-local marker and drained INLINE on the
 *    calling thread instead of deadlocking on submission state.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace localut {

/**
 * One tile batch: an atomic claim counter over [0, count).  Shared by
 * every thread participating in the batch (heap-own it, so a
 * late-waking worker can still probe an exhausted batch).  The closure
 * pointer must stay valid until settled() — guaranteed because the
 * submitter blocks on settlement before returning.
 */
struct TileBatch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    /** Tiles handed out per claim (>= 1).  Coarser claims amortize the
     * fetch_add; finer claims balance load.  See claimChunkFor(). */
    std::size_t claimChunk = 1;

    /** Claim cursor, alone on its cache line: claims are the hot
     * cross-thread traffic and must not invalidate `done` readers. */
    alignas(64) std::atomic<std::size_t> next{0};
    /** Retirement counter, alone on its cache line. */
    alignas(64) std::atomic<std::size_t> done{0};

    alignas(64) std::mutex errorMutex;
    std::exception_ptr error;
    /** Tile index that raised `error`; first-error-wins is DETERMINISTIC:
     * the surviving exception is the one from the lowest-indexed failed
     * tile, regardless of which thread ran it or finished first. */
    std::size_t errorTile = static_cast<std::size_t>(-1);

    /** Claims and runs tile chunks until the range is exhausted; returns
     * true when this call retired the batch's last tile. */
    bool drain();

    /** Every tile has finished (not merely been claimed). */
    bool settled() const;

    /** Every tile has been claimed (workers should move on; the last
     * tiles may still be running on their claimants). */
    bool fullyClaimed() const;

    /** Rethrows the recorded error, if any, handing it over to the
     * calling thread.  Call only after settled(). */
    void rethrowIfError();
};

/** Claim granularity for @p tiles split across @p participants: the
 * largest chunk that still leaves every participant several claims for
 * load balance (at least 4 chunks per participant, min 1 tile). */
std::size_t claimChunkFor(std::size_t tiles, unsigned participants);

/** Runs a batch of independent tile closures to completion. */
class TileExecutor
{
  public:
    virtual ~TileExecutor() = default;

    /** Worker threads available to run() (1 = effectively serial). */
    virtual unsigned concurrency() const = 0;

    /**
     * Invokes fn(0), ..., fn(tiles - 1), each exactly once, possibly
     * concurrently, and returns once every invocation has finished.
     * Rethrows (one of) the closure exceptions, if any, after the batch
     * has settled.
     */
    virtual void run(std::size_t tiles,
                     const std::function<void(std::size_t)>& fn) const = 0;
};

/** The inline executor: runs every tile on the calling thread. */
const TileExecutor& serialTiles();

/**
 * A persistent worker pool implementing TileExecutor.  The calling
 * thread participates in the batch (a TilePool(1) still uses 2 threads'
 * worth of hands, its own plus the caller's claim loop).  Concurrent
 * run() callers enqueue independent batches that are claimed in FIFO
 * order but overlap in flight: a fully-claimed batch no longer blocks
 * the next batch from starting.  A nested run() from inside a tile of
 * this same pool drains inline on the calling thread (no deadlock).
 */
class TilePool final : public TileExecutor
{
  public:
    /** @p threads worker threads; 0 picks hardware_concurrency. */
    explicit TilePool(unsigned threads);
    ~TilePool() override;

    TilePool(const TilePool&) = delete;
    TilePool& operator=(const TilePool&) = delete;

    unsigned concurrency() const override;
    void run(std::size_t tiles,
             const std::function<void(std::size_t)>& fn) const override;

    /** Batches currently queued or claiming (test/diagnostic hook). */
    std::size_t inFlightBatches() const;

  private:
    void workerLoop();
    /** Pops @p batch from queue_ if still present (mutex_ held). */
    void retireLocked(const std::shared_ptr<TileBatch>& batch) const;

    mutable std::mutex mutex_;
    mutable std::condition_variable workCv_; ///< workers: queue non-empty
    mutable std::condition_variable doneCv_; ///< submitters: batch settled
    /** In-flight batches, claimed front-first (guarded by mutex_).  A
     * fully-claimed front batch is popped so workers flow onward. */
    mutable std::deque<std::shared_ptr<TileBatch>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace localut

#endif // LOCALUT_COMMON_PARALLEL_H_
