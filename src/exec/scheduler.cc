#include "exec/scheduler.hh"

#include <atomic>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "cache/key.hh"
#include "sim/batch.hh"
#include "telemetry/telemetry.hh"

namespace
{

/** Interned once; hot-path writes are relaxed atomic adds only. */
struct SchedulerMetrics
{
    wavedyn::MetricId runs;     //!< tasks resolved (hits + computed)
    wavedyn::MetricId computed; //!< tasks that actually simulated
    wavedyn::MetricId hits;
    wavedyn::MetricId misses;
    wavedyn::MetricId stores;
    wavedyn::MetricId storeFailures;
    wavedyn::MetricId runUs;   //!< per-run simulate duration
    wavedyn::MetricId probeUs; //!< whole probe phase duration
    wavedyn::MetricId keyUs;   //!< per-run key derivation
    wavedyn::MetricId storeUs; //!< per-store publish duration
    std::size_t hitRate;       //!< gauge index

    static const SchedulerMetrics &
    get()
    {
        static SchedulerMetrics m = [] {
            auto &reg = wavedyn::metricsRegistry();
            SchedulerMetrics s;
            s.runs = reg.counter("scheduler.runs");
            s.computed = reg.counter("scheduler.computed");
            s.hits = reg.counter("cache.hits");
            s.misses = reg.counter("cache.misses");
            s.stores = reg.counter("cache.stores");
            s.storeFailures = reg.counter("cache.store_failures");
            s.runUs = reg.histogram("sim.run_us");
            s.probeUs = reg.histogram("cache.probe_us");
            s.keyUs = reg.histogram("cache.key_us");
            s.storeUs = reg.histogram("cache.store_us");
            s.hitRate = reg.gauge("cache.hit_rate");
            return s;
        }();
        return m;
    }
};

} // namespace

namespace wavedyn
{

RunScheduler::RunScheduler(std::uint64_t seed)
    : base(seed), cache(activeResultCache())
{
}

std::size_t
RunScheduler::enqueue(RunTask task)
{
    assert(task.benchmark != nullptr);
    tasks.push_back(std::move(task));
    return tasks.size() - 1;
}

void
RunScheduler::run(ThreadPool &pool)
{
    std::size_t first = completed;
    if (first == tasks.size())
        return;
    results.resize(tasks.size());
    resolved.resize(tasks.size(), 0);
    // A retry after a throwing batch re-enters here with some tasks
    // beyond `completed` already resolved — they are committed work
    // and must neither re-run nor re-fire their events.
    std::size_t already = 0;
    for (char r : resolved)
        already += (r != 0);
    // The counter orders completions, not results (those are stored by
    // task index): the hook sees monotonic counts no matter which
    // worker finishes which run.
    std::atomic<std::size_t> done{already};
    std::size_t total = tasks.size();

    // Telemetry observes, never participates: every record below is a
    // relaxed atomic add (metrics) or an owner-thread buffer append
    // (spans), so counts are jobs-invariant and reports untouched.
    const SchedulerMetrics &tm = SchedulerMetrics::get();
    auto &reg = metricsRegistry();
    SpanTracer &tracer = spanTracer();

    // Probe phase: resolve every unresolved task against the cache
    // before any simulation. Pool workers derive each task's key and
    // load its record straight into the task's result slot; then one
    // serial pass in task order fires the hit/miss telemetry, cache
    // events and progress a serial probe would, and hands only the
    // misses on to simulation. A warm batch costs one probe dispatch.
    std::vector<std::size_t> pending;
    for (std::size_t i = first; i < tasks.size(); ++i)
        if (!resolved[i])
            pending.push_back(i);
    std::vector<CacheKey> pendingKeys;
    if (cache) {
        std::uint64_t probeStart = telemetryNowUs();
        ScopedSpan probeSpan = tracer.span("cache-probe", "cache");
        std::vector<std::size_t> probe;
        probe.swap(pending); // the misses refill pending below
        // Size every slot's interval storage here, on the calling
        // thread, so a hit decodes into memory this thread allocated:
        // workers allocating the decoded traces would spread them
        // over per-thread malloc arenas and raise peak RSS. The key
        // prefix (sim version + benchmark, the bulk of the key
        // document) is hashed once per distinct benchmark.
        std::vector<CacheKeyPrefixState> prefixes(probe.size());
        std::unordered_map<const BenchmarkProfile *, CacheKeyPrefixState>
            prefixOf;
        for (std::size_t k = 0; k < probe.size(); ++k) {
            const RunTask &t = tasks[probe[k]];
            results[probe[k]].intervals.reserve(t.samples);
            auto it = prefixOf.find(t.benchmark);
            if (it == prefixOf.end())
                it = prefixOf
                         .emplace(t.benchmark,
                                  cacheKeyPrefixState(*t.benchmark,
                                                      cache->simVersion()))
                         .first;
            prefixes[k] = it->second;
        }
        std::vector<CacheKey> keys(probe.size());
        std::vector<char> hit(probe.size(), 0);
        parallelFor(pool, probe.size(), [&](std::size_t k) {
            const RunTask &t = tasks[probe[k]];
            std::uint64_t keyStart = telemetryNowUs();
            keys[k] = finishCacheKey(prefixes[k], t.config, t.samples,
                                     t.intervalInstrs, t.dvm);
            reg.observe(tm.keyUs, telemetryNowUs() - keyStart);
            hit[k] = cache->loadInto(keys[k], results[probe[k]]) ? 1 : 0;
        });
        for (std::size_t k = 0; k < probe.size(); ++k) {
            std::size_t i = probe[k];
            std::string hex = keys[k].hex();
            if (hit[k]) {
                resolved[i] = 1;
                reg.add(tm.hits, 1);
                reg.add(tm.runs, 1);
                tracer.instant("cache-hit", "cache", "key", hex);
                if (events.hit)
                    events.hit(hex);
                if (progress)
                    progress(done.fetch_add(1,
                                            std::memory_order_relaxed) +
                                 1,
                             total);
            } else {
                // Simulation replaces the slot wholesale; give back
                // the storage sized for a hit that did not happen.
                results[i] = SimResult{};
                reg.add(tm.misses, 1);
                tracer.instant("cache-miss", "cache", "key", hex);
                if (events.miss)
                    events.miss(hex);
                pending.push_back(i);
                pendingKeys.push_back(keys[k]);
            }
        }
        reg.observe(tm.probeUs, telemetryNowUs() - probeStart);
    }

    // Batch grouping: missing tasks that share a run shape
    // (benchmark, samples, intervalInstrs, DVM policy) fold into one
    // simulateBatch() call of at most globalBatchWidth() lanes —
    // decode once, simulate many. Chunks are formed in task order
    // from the task list and the width alone, never from --jobs, and
    // simulateBatch() is bit-identical to per-task simulate()
    // (sim/batch.hh), so results — and therefore reports — are
    // byte-identical whether and however tasks were batched. A custom
    // task runner computes per task by contract, so it bypasses
    // grouping entirely.
    auto sameShape = [](const RunTask &a, const RunTask &b) {
        return a.benchmark == b.benchmark && a.samples == b.samples &&
               a.intervalInstrs == b.intervalInstrs &&
               a.dvm.enabled == b.dvm.enabled &&
               a.dvm.threshold == b.dvm.threshold &&
               a.dvm.sampleCycles == b.dvm.sampleCycles &&
               a.dvm.initialWqRatio == b.dvm.initialWqRatio &&
               a.dvm.minWqRatio == b.dvm.minWqRatio &&
               a.dvm.maxWqRatio == b.dvm.maxWqRatio;
    };
    const std::size_t width = runner ? 1 : globalBatchWidth();
    std::vector<std::vector<std::size_t>> chunks; // indices into pending
    if (width <= 1) {
        chunks.reserve(pending.size());
        for (std::size_t k = 0; k < pending.size(); ++k)
            chunks.push_back({k});
    } else {
        // One open (not yet full) chunk per distinct run shape;
        // chunks appear in first-task order and fill in task order.
        std::vector<std::size_t> open;
        for (std::size_t k = 0; k < pending.size(); ++k) {
            const RunTask &t = tasks[pending[k]];
            std::size_t c = open.size();
            for (std::size_t o = 0; o < open.size(); ++o)
                if (sameShape(tasks[pending[chunks[open[o]][0]]], t)) {
                    c = o;
                    break;
                }
            if (c == open.size()) {
                open.push_back(chunks.size());
                chunks.push_back({});
            }
            std::vector<std::size_t> &chunk = chunks[open[c]];
            chunk.push_back(k);
            if (chunk.size() >= width)
                open.erase(open.begin() +
                           static_cast<std::ptrdiff_t>(c));
        }
    }

    // Publish one computed task: store to cache, mark resolved, fire
    // telemetry and progress. spanStart/spanUs are the task's share of
    // its chunk's wall time — one "run" span and one sim.run_us sample
    // per logical run, whatever the batch width or --jobs setting: the
    // trace's span multiset is pinned jobs- and batch-invariant by
    // tests.
    auto publish = [&](std::size_t k, std::uint64_t spanStart,
                       std::uint64_t spanUs) {
        std::size_t i = pending[k];
        reg.observe(tm.runUs, spanUs);
        reg.add(tm.computed, 1);
        tracer.complete("run", "sim", spanStart, spanUs, "task",
                        std::to_string(i));
        if (cache) {
            std::uint64_t storeStart = telemetryNowUs();
            bool storedOk = cache->store(pendingKeys[k], results[i]);
            reg.observe(tm.storeUs, telemetryNowUs() - storeStart);
            if (storedOk) {
                reg.add(tm.stores, 1);
                tracer.instant("cache-store", "cache", "key",
                               pendingKeys[k].hex());
                if (events.store)
                    events.store(pendingKeys[k].hex());
            } else {
                reg.add(tm.storeFailures, 1);
                tracer.instant("cache-store-failed", "cache", "key",
                               pendingKeys[k].hex());
                if (events.storeFailed)
                    events.storeFailed(pendingKeys[k].hex());
            }
        }
        resolved[i] = 1;
        reg.add(tm.runs, 1);
        if (progress)
            progress(done.fetch_add(1, std::memory_order_relaxed) + 1,
                     total);
    };

    // parallelFor rethrows the lowest-index exception only after every
    // index ran, so each non-throwing chunk below commits (result
    // slots filled, resolved flags set, events fired) no matter what
    // its siblings did — the exception just propagates past the final
    // commit of `completed`, leaving the per-task flags as the record
    // of what a retry may skip. A chunk is all-or-nothing: a throwing
    // batch commits none of its tasks, and a retry re-groups and
    // re-runs exactly the tasks that never resolved.
    parallelFor(pool, chunks.size(), [&](std::size_t ci) {
        const std::vector<std::size_t> &chunk = chunks[ci];
        if (chunk.size() == 1) {
            std::size_t i = pending[chunk[0]];
            const RunTask &t = tasks[i];
            std::uint64_t runStart = telemetryNowUs();
            results[i] = runner ? runner(t)
                                : simulate(*t.benchmark, t.config,
                                           t.samples, t.intervalInstrs,
                                           t.dvm);
            publish(chunk[0], runStart, telemetryNowUs() - runStart);
            return;
        }
        const RunTask &t0 = tasks[pending[chunk[0]]];
        std::vector<SimConfig> cfgs;
        cfgs.reserve(chunk.size());
        for (std::size_t k : chunk)
            cfgs.push_back(tasks[pending[k]].config);
        std::uint64_t batchStart = telemetryNowUs();
        std::vector<SimResult> rs =
            simulateBatch(*t0.benchmark, cfgs, t0.samples,
                          t0.intervalInstrs, t0.dvm);
        std::uint64_t share =
            (telemetryNowUs() - batchStart) / chunk.size();
        for (std::size_t l = 0; l < chunk.size(); ++l) {
            results[pending[chunk[l]]] = std::move(rs[l]);
            publish(chunk[l], batchStart + l * share, share);
        }
    });
    completed = tasks.size();

    // The hit-rate gauge tracks the cache's own lifetime counters —
    // the trajectory a long campaign sees, not just this batch.
    if (cache) {
        ResultCacheStats stats = cache->stats();
        std::uint64_t looked = stats.hits + stats.misses;
        if (looked > 0)
            reg.setGauge(tm.hitRate, static_cast<double>(stats.hits) /
                                         static_cast<double>(looked));
    }
}

void
RunScheduler::releaseResults()
{
    released = completed;
    results.clear();
    results.shrink_to_fit();
}

} // namespace wavedyn
