/**
 * @file
 * The sweep engine: one parallel, memoizing evaluation layer under
 * every sweep-shaped consumer of the SoC simulator.
 *
 * Calibration (`calib::calibrate`), the predicted-vs-actual benches
 * (`bench::sweepKernel`), the design explorer, and the power-budget
 * explorer all reduce to evaluating independent (SoC, PU, kernel,
 * external-BW) points. The engine owns a simple thread pool that
 * evaluates such points in parallel while guaranteeing bit-identical
 * results to serial execution — point ordering is deterministic, each
 * point writes only its own result slot, and every evaluated function
 * is pure (`SocSimulator::run` and friends are const) — and routes
 * all evaluations through a shared `EvalCache` so overlapping sweeps
 * (the calibration ladder, the figure ladders, the frequency grids)
 * stop recomputing common points.
 *
 * Pool sizing: `std::thread::hardware_concurrency()` by default,
 * overridable with the `PCCS_JOBS` environment variable. `PCCS_JOBS=1`
 * disables the pool entirely (pure serial fallback).
 */

#ifndef PCCS_RUNNER_SWEEP_ENGINE_HH
#define PCCS_RUNNER_SWEEP_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "runner/eval_cache.hh"
#include "soc/simulator.hh"

namespace pccs::runner {

/** One independent sweep point: a kernel on a PU under pressure. */
struct EvalPoint
{
    std::size_t puIndex = 0;
    soc::KernelProfile kernel;
    GBps externalBw = 0.0;
};

/**
 * A fixed-size pool of `std::jthread` workers executing indexed loop
 * bodies. One batch runs at a time; `run()` blocks until the batch
 * completes and the calling thread participates in the work.
 */
class ThreadPool
{
  public:
    /** Spawn `workers` threads (0 = no pool; run() executes inline). */
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return number of pool threads (excluding the caller). */
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Execute body(0) .. body(count - 1), distributing indices over
     * the pool plus the calling thread. Indices are claimed atomically
     * but each index runs exactly once and writes only what the body
     * makes it write, so any pure body yields results identical to a
     * serial loop. Blocks until every index completed. Bodies must not
     * call run() on the same pool (batches do not nest).
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &body);

  private:
    void workerLoop(const std::stop_token &stop);

    std::mutex batchMutex_; ///< serializes concurrent run() callers
    std::mutex mutex_;
    std::condition_variable_any cvWork_;
    std::condition_variable cvDone_;
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t count_ = 0;
    std::atomic<std::size_t> next_{0};
    std::size_t active_ = 0;
    std::uint64_t generation_ = 0;
    /** Declared last: joins (via stop token) before members die. */
    std::vector<std::jthread> threads_;
};

/**
 * Parallel, cached evaluation of sweep points. One engine (usually
 * the process-wide `global()` instance) is shared by calibration,
 * benches, and the explorers so their overlapping sweep matrices hit
 * the same cache.
 */
class SweepEngine
{
  public:
    /**
     * @param jobs total worker count including the calling thread;
     *        0 = automatic (PCCS_JOBS env var, else
     *        hardware_concurrency), 1 = serial fallback.
     */
    explicit SweepEngine(unsigned jobs = 0);

    /** @return the effective job count (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Achieved relative speed (%) of one point, memoized. Identical
     * to `sim.relativeSpeedUnderPressure(pu, kernel, external)`.
     */
    double evaluate(const soc::SocSimulator &sim, std::size_t pu_index,
                    const soc::KernelProfile &kernel, GBps external);

    /**
     * Evaluate all points on `sim` in parallel; result[i] is point
     * i's relative speed, bit-identical to a serial loop.
     */
    std::vector<double> evaluateBatch(const soc::SocSimulator &sim,
                                      const std::vector<EvalPoint> &points);

    /** Standalone profile of a kernel on a PU, memoized. */
    soc::StandaloneProfile profile(const soc::SocSimulator &sim,
                                   std::size_t pu_index,
                                   const soc::KernelProfile &kernel);

    /**
     * Deterministic parallel loop over [0, count) on the engine's
     * pool, for sweep-shaped work that is not a plain speed
     * evaluation (grid precomputes, per-config sweeps).
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    EvalCache &cache() { return cache_; }
    const EvalCache &cache() const { return cache_; }

    /**
     * The process-wide engine. Created on first use; sized from
     * PCCS_JOBS / hardware_concurrency at that moment. It is never
     * destroyed, so exiting the process does not join its pool.
     */
    static SweepEngine &global();

  private:
    unsigned jobs_;
    EvalCache cache_;
    ThreadPool pool_;
};

} // namespace pccs::runner

#endif // PCCS_RUNNER_SWEEP_ENGINE_HH
